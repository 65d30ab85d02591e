package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
)

// unmarshalPacked is json.Unmarshal(body, v) for a zero v whose [][]byte
// field *packed is the member named key, with that member's base64 kept
// from encoding/json's scanner: encoding/json decodes a copy of body with
// the array nulled, and base64.StdEncoding.Decode, as encoding/json would,
// decodes each row into memory from mem. A body not split with certainty,
// or mostly not the array (an inline matrix: the copy would cost more than
// the scanner), goes to json.Unmarshal whole, so the accepted set, the
// fields and every error are its own. rows is scratch, returned for reuse.
func unmarshalPacked[T any](body []byte, key string, v *T, packed *[][]byte, rows [][]byte, mem func(n int) []byte) ([][]byte, error) {
	rows, start, end, ok := splitPacked(body, key, rows[:0])
	if ok = ok && 2*(end-start) >= len(body); ok {
		rest := append(append(mem(len(body) - (end - start) + 4)[:0], body[:start]...), "null"...)
		// A field left set is a key the walker missed: the backstop.
		ok = json.Unmarshal(append(rest, body[end:]...), v) == nil && *packed == nil
	}
	for j := 0; ok && j < len(rows); j++ {
		dst := mem(base64.StdEncoding.DecodedLen(len(rows[j])))
		n, err := base64.StdEncoding.Decode(dst, rows[j])
		rows[j], ok = dst[:n], err == nil
	}
	if !ok {
		*v = *new(T)
		return rows, json.Unmarshal(body, v)
	}
	*packed = rows
	return rows, nil
}

// splitPacked finds the top-level member whose key is byte for byte key
// and whose value is a non-empty array of plain strings (no escape or
// control byte), appends the strings to rows as views of body and returns
// the value's span. It is not ok for a body that is no object, lacks the
// member, or has another top-level key that is key again, is escaped or
// case-folds to key (encoding/json may decode it into the same field).
// Other values are skipped: json.Unmarshal of the rest checks them.
func splitPacked(body []byte, key string, rows [][]byte) (_ [][]byte, start, end int, ok bool) {
	i := skipSpace(body, 0)
	if !bytes.Contains(body, []byte(key)) || i == len(body) || body[i] != '{' {
		return rows, 0, 0, false
	}
	for depth := 0; i < len(body); i++ {
		switch body[i] {
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				return rows, start, end, end > 0
			}
		case '"':
			s := i + 1
			for i = s; i < len(body) && body[i] != '"'; i++ {
				if body[i] == '\\' {
					i++
				}
			}
			colon := skipSpace(body, i+1)
			if i >= len(body) || depth != 1 || colon == len(body) || body[colon] != ':' {
				continue // a string value, or the end of body
			}
			switch k := body[s:i]; {
			case string(k) == key && end == 0:
				start = skipSpace(body, colon+1)
				if rows, end = packedRows(body, start, rows); end < 0 {
					return rows, 0, 0, false
				}
				i = end - 1
			case string(k) == key || bytes.IndexByte(k, '\\') >= 0 || bytes.EqualFold(k, []byte(key)):
				return rows, 0, 0, false
			default:
				i = colon
			}
		}
	}
	return rows, 0, 0, false
}

// packedRows appends the non-empty array of plain strings at body[i] to
// rows and returns the index after it, or -1.
func packedRows(body []byte, i int, rows [][]byte) ([][]byte, int) {
	if i == len(body) || body[i] != '[' {
		return rows, -1
	}
	for i = skipSpace(body, i+1); i < len(body) && body[i] == '"'; i = skipSpace(body, i+1) {
		s := i + 1
		for i = s; i < len(body) && body[i] != '"' && body[i] != '\\' && body[i] >= 0x20; i++ {
		}
		if i == len(body) || body[i] != '"' {
			break
		}
		rows = append(rows, body[s:i:i])
		if i = skipSpace(body, i+1); i < len(body) && body[i] == ']' {
			return rows, i + 1
		}
		if i == len(body) || body[i] != ',' {
			break
		}
	}
	return rows, -1
}

func skipSpace(b []byte, i int) int {
	for ; i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r'); i++ {
	}
	return i
}

// DecodeSolveResponse decodes a JSON /v1/trisolve reply into r exactly
// as json.Unmarshal does, without encoding/json's scanner on x_b64. r's
// rows are its own; raw may be reused.
func DecodeSolveResponse(raw []byte, r *SolveResponse) error {
	*r = SolveResponse{}
	_, err := unmarshalPacked(raw, "x_b64", r, &r.X64, nil, func(n int) []byte { return make([]byte, n) })
	return err
}
