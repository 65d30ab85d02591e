package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"doconsider/internal/arena"
	"doconsider/internal/sparse"
)

// Binary wire protocol ("DCWF" frames).
//
// POST /v1/trisolve with Content-Type application/x-doconsider-frame
// carries the request as one versioned, length-prefixed binary frame
// instead of JSON. All integers and floats are little-endian. A frame
// is:
//
//	header (24 bytes)
//	  [0:4)   magic "DCWF"
//	  [4]     version (1)
//	  [5]     flags: bit0 = lower (forward solve)
//	  [6:8)   section count (uint16)
//	  [8:16)  total frame length in bytes (uint64, must equal the body)
//	  [16:24) reserved, zero
//	section table (16 bytes per section, immediately after the header)
//	  [0:2)   section type (uint16)
//	  [2:4)   reserved, zero
//	  [4:8)   element count (uint32, meaning per type)
//	  [8:12)  payload byte offset from frame start (uint32, 8-aligned)
//	  [12:16) payload byte length (uint32)
//	payloads (8-aligned, within [header+table, total length))
//
// Section types and payloads:
//
//	1 dim      count = n; no payload
//	2 rowptr   count = n+1 int32s
//	3 colidx   count = nnz int32s
//	4 val      count = nnz float64s
//	5 rhs      count = k vectors; payload k*n float64s, row-major
//	6 fp       resubmit fingerprint; payload one uint64
//	7 base_fp  drift base fingerprint; payload one uint64
//	8 edits    count = edit records (layout below)
//	9 timeout  count = timeout in ms; no payload
//	10 solutions (response) count = k vectors; payload k*n float64s
//	11 fp        (response) payload one uint64
//	12 info      (response) payload fused uint32, width uint32, executed int64
//	13 strategy  (response) count = byte length; UTF-8 payload
//	14 error     (response) count = HTTP status; UTF-8 message payload
//	15 trace_id  client-chosen trace ID to propagate; payload one uint64
//	16 trace_id  (response) payload one uint64 (echoed or server-assigned)
//	17 tenant    count = class (0 batch, 1 latency); payload tenant name
//	             (UTF-8, 1-64 bytes of [A-Za-z0-9._-])
//
// One edit record (section 8): a 16-byte header {row int32, inserts
// int32, deletes int32, reserved int32}, the insert column int32s, the
// delete column int32s, zero padding to the next 8-byte boundary, then
// the insert value float64s. Records follow each other back to back.
//
// On a little-endian host an 8-aligned request buffer decodes by
// slicing: rowptr/colidx/val/rhs become typed views over the frame
// bytes with no element-wise copy (the factor is cloned only when it
// enters the by-fingerprint cache — the cold path). Big-endian hosts
// and misaligned buffers fall back to element-wise decoding into arena
// memory; the wire format itself is always little-endian.

// FrameContentType is the Content-Type that selects the binary wire
// protocol on POST /v1/trisolve.
const FrameContentType = "application/x-doconsider-frame"

// MaxFrameBytes bounds a /v1/trisolve request body on either wire (the
// one body reader enforces it; the frame decoder re-checks it for
// direct callers).
const MaxFrameBytes = 64 << 20

const (
	frameMagic      = "DCWF"
	frameVersion    = 1
	frameHeaderLen  = 24
	frameSectionLen = 16
	flagLower       = 1 << 0

	maxFrameSections = 32
)

// Section types.
const (
	secDim         = 1
	secRowPtr      = 2
	secColIdx      = 3
	secVal         = 4
	secRHS         = 5
	secFp          = 6
	secBaseFp      = 7
	secEdits       = 8
	secTimeout     = 9
	secSolutions   = 10
	secRespFp      = 11
	secInfo        = 12
	secStrategy    = 13
	secError       = 14
	secTraceID     = 15
	secRespTraceID = 16
	secTenant      = 17
)

// frameSection is one decoded section-table entry.
type frameSection struct {
	typ    uint16
	count  uint32
	off    uint32
	length uint32
}

// parseSections validates the frame envelope — magic, version, declared
// length, table bounds, payload bounds and alignment — and returns the
// flags byte and the section table. It never panics or reads past the
// buffer on any input (FuzzFrameDecode pins this).
func parseSections(buf []byte, sects []frameSection) (flags byte, _ []frameSection, err error) {
	if len(buf) < frameHeaderLen {
		return 0, nil, errors.New("frame shorter than header")
	}
	if string(buf[0:4]) != frameMagic {
		return 0, nil, errors.New("bad frame magic")
	}
	if buf[4] != frameVersion {
		return 0, nil, fmt.Errorf("unsupported frame version %d (want %d)", buf[4], frameVersion)
	}
	flags = buf[5]
	nsect := int(binary.LittleEndian.Uint16(buf[6:8]))
	total := binary.LittleEndian.Uint64(buf[8:16])
	if total != uint64(len(buf)) {
		return 0, nil, fmt.Errorf("frame declares %d bytes, body has %d", total, len(buf))
	}
	if nsect > maxFrameSections {
		return 0, nil, fmt.Errorf("frame has %d sections, limit %d", nsect, maxFrameSections)
	}
	tableEnd := uint64(frameHeaderLen) + uint64(nsect)*frameSectionLen
	if tableEnd > uint64(len(buf)) {
		return 0, nil, fmt.Errorf("section table (%d entries) exceeds frame", nsect)
	}
	sects = sects[:0]
	for i := 0; i < nsect; i++ {
		e := buf[frameHeaderLen+i*frameSectionLen:]
		s := frameSection{
			typ:    binary.LittleEndian.Uint16(e[0:2]),
			count:  binary.LittleEndian.Uint32(e[4:8]),
			off:    binary.LittleEndian.Uint32(e[8:12]),
			length: binary.LittleEndian.Uint32(e[12:16]),
		}
		if s.length > 0 {
			if s.off%8 != 0 {
				return 0, nil, fmt.Errorf("section %d payload offset %d not 8-aligned", s.typ, s.off)
			}
			if uint64(s.off) < tableEnd || uint64(s.off)+uint64(s.length) > uint64(len(buf)) {
				return 0, nil, fmt.Errorf("section %d payload [%d,%d) outside frame", s.typ, s.off, uint64(s.off)+uint64(s.length))
			}
		} else {
			// An empty payload carries no bytes; normalize its offset so
			// decoders can slice buf[s.off:s.off+s.length] unconditionally.
			s.off = 0
		}
		sects = append(sects, s)
	}
	return flags, sects, nil
}

// sectionInt32s decodes an int32 payload: a zero-copy view on
// little-endian hosts with aligned buffers, an arena copy otherwise.
func sectionInt32s(payload []byte, a *arena.Arena) []int32 {
	if arena.HostLittleEndian() && arena.Aligned8(payload) {
		return arena.ViewInt32s(payload)
	}
	out := a.Int32s(len(payload) / 4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(payload[4*i:]))
	}
	return out
}

// sectionFloat64s decodes a float64 payload the same way.
func sectionFloat64s(payload []byte, a *arena.Arena) []float64 {
	if arena.HostLittleEndian() && arena.Aligned8(payload) {
		return arena.ViewFloat64s(payload)
	}
	out := a.Float64s(len(payload) / 8)
	getFloat64s(out, payload)
	return out
}

// parseRequestFrame decodes a request frame into req. Numeric sections
// become views into buf where the host allows (see sectionInt32s), so
// req must not outlive buf or the arena. sects is caller-provided
// scratch to keep the warm path allocation-free.
func parseRequestFrame(buf []byte, a *arena.Arena, req *wireRequest, sects []frameSection) error {
	if len(buf) > MaxFrameBytes {
		return fmt.Errorf("frame has %d bytes, limit %d", len(buf), MaxFrameBytes)
	}
	flags, sects, err := parseSections(buf, sects)
	if err != nil {
		return err
	}
	*req = wireRequest{lower: flags&flagLower != 0, borrowed: true}
	seen := uint32(0)
	for _, s := range sects {
		if s.typ >= 32 {
			return fmt.Errorf("unknown section type %d", s.typ)
		}
		if seen&(1<<s.typ) != 0 {
			return fmt.Errorf("duplicate section type %d", s.typ)
		}
		seen |= 1 << s.typ
		payload := buf[s.off : uint64(s.off)+uint64(s.length)]
		switch s.typ {
		case secDim:
			if s.count == 0 || s.count > math.MaxInt32 {
				return fmt.Errorf("dim section: n=%d out of range", s.count)
			}
			req.n = int(s.count)
		case secRowPtr:
			if uint64(s.length) != 4*uint64(s.count) {
				return fmt.Errorf("rowptr section: %d bytes for %d entries", s.length, s.count)
			}
			req.rowPtr = sectionInt32s(payload, a)
		case secColIdx:
			if uint64(s.length) != 4*uint64(s.count) {
				return fmt.Errorf("colidx section: %d bytes for %d entries", s.length, s.count)
			}
			req.colIdx = sectionInt32s(payload, a)
		case secVal:
			if uint64(s.length) != 8*uint64(s.count) {
				return fmt.Errorf("val section: %d bytes for %d entries", s.length, s.count)
			}
			req.val = sectionFloat64s(payload, a)
		case secRHS:
			if s.count == 0 {
				return errors.New("rhs section: zero vectors")
			}
			if s.length%8 != 0 || uint64(s.length) < 8*uint64(s.count) ||
				uint64(s.length/8)%uint64(s.count) != 0 {
				return fmt.Errorf("rhs section: %d bytes do not divide into %d vectors", s.length, s.count)
			}
			flat := sectionFloat64s(payload, a)
			n := len(flat) / int(s.count)
			req.rhs = a.Rows(int(s.count))
			for j := range req.rhs {
				req.rhs[j] = flat[j*n : (j+1)*n : (j+1)*n]
			}
		case secFp:
			if s.length != 8 {
				return fmt.Errorf("fp section: %d bytes, want 8", s.length)
			}
			req.fp = binary.LittleEndian.Uint64(payload)
			req.hasFp = true
		case secBaseFp:
			if s.length != 8 {
				return fmt.Errorf("base_fp section: %d bytes, want 8", s.length)
			}
			req.baseFp = binary.LittleEndian.Uint64(payload)
			req.hasBaseFp = true
		case secEdits:
			edits, err := parseEdits(payload, s.count)
			if err != nil {
				return err
			}
			req.edits = edits
		case secTimeout:
			// The count field is a signed millisecond value on the wire so a
			// client bug that encodes a negative timeout is visible here and
			// rejected by the one timeout rule in solve.
			req.timeoutMs = int(int32(s.count))
		case secTraceID:
			if s.length != 8 {
				return fmt.Errorf("trace_id section: %d bytes, want 8", s.length)
			}
			req.traceID = binary.LittleEndian.Uint64(payload)
		case secTenant:
			if err := validateTenantNameBytes(payload); err != nil {
				return fmt.Errorf("tenant section: %w", err)
			}
			if s.count >= numClasses {
				return fmt.Errorf("tenant section: unknown class %d", s.count)
			}
			req.tenant = payload
			req.class = Class(s.count)
		default:
			return fmt.Errorf("unknown section type %d", s.typ)
		}
	}
	return nil
}

// parseEdits decodes the drift edit records. Drift requests materialize
// a new factor anyway (the cold path), so this decoder favors bounds
// clarity over zero-copy and allocates ordinary slices.
func parseEdits(payload []byte, count uint32) ([]sparse.RowEdit, error) {
	// Every record occupies at least its 16-byte header; a count the
	// payload cannot hold is rejected before it sizes any allocation.
	if count > math.MaxInt32 || uint64(count)*16 > uint64(len(payload)) {
		return nil, fmt.Errorf("edits section: count %d exceeds %d payload bytes", count, len(payload))
	}
	edits := make([]sparse.RowEdit, 0, count)
	off := 0
	for e := uint32(0); e < count; e++ {
		if off+16 > len(payload) {
			return nil, fmt.Errorf("edits section: record %d header exceeds payload", e)
		}
		row := int32(binary.LittleEndian.Uint32(payload[off:]))
		nIns := int64(int32(binary.LittleEndian.Uint32(payload[off+4:])))
		nDel := int64(int32(binary.LittleEndian.Uint32(payload[off+8:])))
		off += 16
		if nIns < 0 || nDel < 0 {
			return nil, fmt.Errorf("edits section: record %d has negative counts", e)
		}
		need := 4 * (nIns + nDel)
		need += (8 - need%8) % 8
		need += 8 * nIns
		if int64(off)+need > int64(len(payload)) {
			return nil, fmt.Errorf("edits section: record %d body exceeds payload", e)
		}
		ed := sparse.RowEdit{Row: row}
		if nIns > 0 {
			ed.Insert = make([]sparse.EditEntry, nIns)
		}
		for i := range ed.Insert {
			ed.Insert[i].Col = int32(binary.LittleEndian.Uint32(payload[off:]))
			off += 4
		}
		if nDel > 0 {
			ed.Delete = make([]int32, nDel)
		}
		for i := range ed.Delete {
			ed.Delete[i] = int32(binary.LittleEndian.Uint32(payload[off:]))
			off += 4
		}
		off += (8 - off%8) % 8
		for i := range ed.Insert {
			ed.Insert[i].Val = math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
			off += 8
		}
		edits = append(edits, ed)
	}
	return edits, nil
}

// align8 rounds n up to the next multiple of 8.
func align8(n int) int { return (n + 7) &^ 7 }

// respLayout is the fixed layout of a success response frame for k
// solutions of length n: solutions, fp (always present; patched to the
// zero fingerprint on a collision), info, a trace ID, and a strategy
// section with strategyReserve bytes reserved (the count field is
// patched to the actual name length).
const strategyReserve = 24

type respLayout struct {
	total    int
	solOff   int
	fpOff    int
	infoOff  int
	tidOff   int
	stratOff int
	n        int
}

func responseLayout(k, n int) respLayout {
	var lo respLayout
	lo.n = n
	off := frameHeaderLen + 5*frameSectionLen
	lo.solOff = off
	off += align8(8 * k * n)
	lo.fpOff = off
	off += 8
	lo.infoOff = off
	off += 16
	lo.tidOff = off
	off += 8
	lo.stratOff = off
	off += strategyReserve
	lo.total = off
	return lo
}

// beginFrame (the DCWF codec's begin) lays a success frame out in arena
// memory and returns the solution row views aimed into its solutions
// section, so the solver writes results directly into the response
// bytes. The header, table and reserved regions are fully written here —
// arena memory is recycled across requests and must never leak stale
// bytes onto the wire.
func beginFrame(st *reqState, k, n int) [][]float64 {
	lo := responseLayout(k, n)
	buf := st.arena.Bytes(lo.total)
	st.out, st.lo = buf, lo
	writeFrameHeader(buf, 0, 5, uint64(lo.total))
	writeSection(buf, 0, secSolutions, uint32(k), uint32(lo.solOff), uint32(8*k*n))
	writeSection(buf, 1, secRespFp, 0, uint32(lo.fpOff), 8)
	writeSection(buf, 2, secInfo, 0, uint32(lo.infoOff), 16)
	writeSection(buf, 3, secStrategy, 0, uint32(lo.stratOff), 0)
	writeSection(buf, 4, secRespTraceID, 0, uint32(lo.tidOff), 8)
	// Zero the pad after the solutions payload and the strategy reserve;
	// every other byte up to total is written by the sections above or by
	// the solve/finish steps.
	for i := lo.solOff + 8*k*n; i < lo.fpOff; i++ {
		buf[i] = 0
	}
	for i := lo.stratOff; i < lo.total; i++ {
		buf[i] = 0
	}
	return solutionRows(st.arena, buf[lo.solOff:lo.solOff+8*k*n], k, n)
}

// solutionRows returns the k solver output rows of length n over sol,
// the 8*k*n arena bytes that go on the wire little-endian: views into
// sol on little-endian hosts, so the solver writes the response bytes in
// place, separate arena vectors otherwise (flushSolutions serializes
// those after the solve). Both codecs place their solutions this way.
func solutionRows(a *arena.Arena, sol []byte, k, n int) [][]float64 {
	xs := a.Rows(k)
	if arena.HostLittleEndian() {
		flat := arena.ViewFloat64s(sol)
		for j := range xs {
			xs[j] = flat[j*n : (j+1)*n : (j+1)*n]
		}
		return xs
	}
	for j := range xs {
		xs[j] = a.Float64s(n)
	}
	return xs
}

// flushSolutions serializes xs into sol on hosts where solutionRows
// could not hand out in-place views.
func flushSolutions(sol []byte, xs [][]float64, n int) {
	if arena.HostLittleEndian() {
		return
	}
	for j, x := range xs {
		putFloat64s(sol[8*j*n:], x)
	}
}

// finishFrame (the DCWF codec's finish) patches the fingerprint, info,
// trace-ID and strategy sections after the solve. On big-endian hosts it
// also serializes the solutions into the frame.
func finishFrame(st *reqState, fp uint64, info SolveInfo) ([]byte, int) {
	buf, lo := st.out, st.lo
	flushSolutions(buf[lo.solOff:], st.xs, lo.n)
	binary.LittleEndian.PutUint64(buf[lo.fpOff:], fp)
	binary.LittleEndian.PutUint64(buf[lo.tidOff:], st.tr.ID)
	binary.LittleEndian.PutUint32(buf[lo.infoOff:], uint32(info.Fused))
	binary.LittleEndian.PutUint32(buf[lo.infoOff+4:], uint32(info.Width))
	binary.LittleEndian.PutUint64(buf[lo.infoOff+8:], uint64(info.Metrics.Executed))
	strat := info.Strategy
	if len(strat) > strategyReserve {
		strat = strat[:strategyReserve]
	}
	copy(buf[lo.stratOff:], strat)
	// Patch the strategy section's count and length to the actual name.
	e := buf[frameHeaderLen+3*frameSectionLen:]
	binary.LittleEndian.PutUint32(e[4:8], uint32(len(strat)))
	binary.LittleEndian.PutUint32(e[12:16], uint32(len(strat)))
	return buf, http.StatusOK
}

// writeFrameHeader fills the 24-byte header (version, flags, section
// count, total length, zeroed reserve).
func writeFrameHeader(buf []byte, flags byte, nsect int, total uint64) {
	copy(buf[0:4], frameMagic)
	buf[4] = frameVersion
	buf[5] = flags
	binary.LittleEndian.PutUint16(buf[6:8], uint16(nsect))
	binary.LittleEndian.PutUint64(buf[8:16], total)
	for i := 16; i < 24; i++ {
		buf[i] = 0
	}
}

// writeSection fills section-table entry i.
func writeSection(buf []byte, i int, typ uint16, count, off, length uint32) {
	e := buf[frameHeaderLen+i*frameSectionLen:]
	binary.LittleEndian.PutUint16(e[0:2], typ)
	binary.LittleEndian.PutUint16(e[2:4], 0)
	binary.LittleEndian.PutUint32(e[4:8], count)
	binary.LittleEndian.PutUint32(e[8:12], off)
	binary.LittleEndian.PutUint32(e[12:16], length)
}

// encodeErrorFrame builds an error response frame: section 14 with the
// HTTP status in the count field and the message as payload, plus a
// response trace-ID section so rejected requests are correlatable with
// /v1/trace (tid 0 means the request never got an ID — decoders treat
// it as absent).
func encodeErrorFrame(status int, msg string, tid uint64) []byte {
	payOff := frameHeaderLen + 2*frameSectionLen
	tidOff := payOff + align8(len(msg))
	total := tidOff + 8
	buf := make([]byte, total)
	writeFrameHeader(buf, 0, 2, uint64(total))
	writeSection(buf, 0, secError, uint32(status), uint32(payOff), uint32(len(msg)))
	writeSection(buf, 1, secRespTraceID, 0, uint32(tidOff), 8)
	copy(buf[payOff:], msg)
	binary.LittleEndian.PutUint64(buf[tidOff:], tid)
	return buf
}

// EncodeRequestFrame serializes a SolveRequest as a binary request
// frame. It is the client-side encoder used by loadgen, the examples
// and the differential tests; the server only decodes request frames.
// Exactly one of the factor forms (inline matrix, Fp, BaseFp+Edits)
// should be set, mirroring the JSON rules; B carries the right-hand
// sides (B64 is a JSON-ism and is rejected here).
func EncodeRequestFrame(req *SolveRequest) ([]byte, error) {
	if len(req.B64) > 0 {
		return nil, errors.New("binary frames carry RHS in B, not B64")
	}
	type sec struct {
		typ    uint16
		count  uint32
		length int
		write  func(b []byte)
	}
	var secs []sec
	if req.N != 0 || req.RowPtr != nil || req.ColIdx != nil || req.Val != nil {
		secs = append(secs,
			sec{typ: secDim, count: uint32(req.N)},
			sec{typ: secRowPtr, count: uint32(len(req.RowPtr)), length: 4 * len(req.RowPtr),
				write: func(b []byte) { putInt32s(b, req.RowPtr) }},
			sec{typ: secColIdx, count: uint32(len(req.ColIdx)), length: 4 * len(req.ColIdx),
				write: func(b []byte) { putInt32s(b, req.ColIdx) }},
			sec{typ: secVal, count: uint32(len(req.Val)), length: 8 * len(req.Val),
				write: func(b []byte) { putFloat64s(b, req.Val) }},
		)
	}
	if req.Fp != "" {
		fp, err := parseHexFp(req.Fp)
		if err != nil {
			return nil, err
		}
		secs = append(secs, sec{typ: secFp, length: 8,
			write: func(b []byte) { binary.LittleEndian.PutUint64(b, fp) }})
	}
	if req.BaseFp != "" {
		fp, err := parseHexFp(req.BaseFp)
		if err != nil {
			return nil, err
		}
		secs = append(secs, sec{typ: secBaseFp, length: 8,
			write: func(b []byte) { binary.LittleEndian.PutUint64(b, fp) }})
	}
	if len(req.Edits) > 0 {
		length := editsWireLen(req.Edits)
		secs = append(secs, sec{typ: secEdits, count: uint32(len(req.Edits)), length: length,
			write: func(b []byte) { putEdits(b, req.Edits) }})
	}
	if len(req.B) > 0 {
		n := len(req.B[0])
		for j, row := range req.B {
			if len(row) != n {
				return nil, fmt.Errorf("right-hand side %d has length %d, want %d", j, len(row), n)
			}
		}
		length := 8 * len(req.B) * n
		secs = append(secs, sec{typ: secRHS, count: uint32(len(req.B)), length: length,
			write: func(b []byte) {
				for j, row := range req.B {
					putFloat64s(b[8*j*n:], row)
				}
			}})
	}
	if req.TimeoutMs != 0 {
		// Encode negative values faithfully (int32 on the wire): the server
		// rejects them with 400, and hiding them client-side would mask the
		// bug the rejection exists to surface.
		secs = append(secs, sec{typ: secTimeout, count: uint32(int32(req.TimeoutMs))})
	}
	if req.Tenant != "" {
		class, err := ParseClass(req.Class)
		if req.Class == "" {
			class, err = ClassBatch, nil
		}
		if err != nil {
			return nil, err
		}
		tenant := req.Tenant
		secs = append(secs, sec{typ: secTenant, count: uint32(class), length: len(tenant),
			write: func(b []byte) { copy(b, tenant) }})
	}
	if req.TraceID != "" {
		tid, err := parseHexFp(req.TraceID)
		if err != nil {
			return nil, fmt.Errorf("malformed trace_id %q", req.TraceID)
		}
		secs = append(secs, sec{typ: secTraceID, length: 8,
			write: func(b []byte) { binary.LittleEndian.PutUint64(b, tid) }})
	}

	off := frameHeaderLen + len(secs)*frameSectionLen
	offs := make([]int, len(secs))
	for i := range secs {
		offs[i] = off
		off += align8(secs[i].length)
	}
	buf := make([]byte, off)
	var flags byte
	if req.Lower == nil || *req.Lower {
		flags |= flagLower
	}
	writeFrameHeader(buf, flags, len(secs), uint64(off))
	for i, s := range secs {
		o := offs[i]
		if s.length == 0 {
			o = 0
		}
		writeSection(buf, i, s.typ, s.count, uint32(o), uint32(s.length))
		if s.write != nil {
			s.write(buf[offs[i] : offs[i]+s.length])
		}
	}
	return buf, nil
}

// parseHexFp parses a fingerprint (or trace ID) as both wires spell it
// in text: up to 16 hex digits, nothing else.
func parseHexFp(hexFp string) (uint64, error) {
	fp, err := strconv.ParseUint(hexFp, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("malformed fingerprint %q", hexFp)
	}
	return fp, nil
}

func putInt32s(b []byte, v []int32) {
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(x))
	}
}

func putFloat64s(b []byte, v []float64) {
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
}

// getFloat64s fills v from the little-endian float64s at the front of b.
func getFloat64s(v []float64, b []byte) {
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

func editsWireLen(edits []sparse.RowEdit) int {
	total := 0
	for _, e := range edits {
		rec := 16 + 4*(len(e.Insert)+len(e.Delete))
		rec = align8(rec)
		rec += 8 * len(e.Insert)
		total += rec
	}
	return total
}

func putEdits(b []byte, edits []sparse.RowEdit) {
	off := 0
	for _, e := range edits {
		binary.LittleEndian.PutUint32(b[off:], uint32(e.Row))
		binary.LittleEndian.PutUint32(b[off+4:], uint32(len(e.Insert)))
		binary.LittleEndian.PutUint32(b[off+8:], uint32(len(e.Delete)))
		binary.LittleEndian.PutUint32(b[off+12:], 0)
		off += 16
		for _, in := range e.Insert {
			binary.LittleEndian.PutUint32(b[off:], uint32(in.Col))
			off += 4
		}
		for _, d := range e.Delete {
			binary.LittleEndian.PutUint32(b[off:], uint32(d))
			off += 4
		}
		for off%8 != 0 {
			b[off] = 0
			off++
		}
		for _, in := range e.Insert {
			binary.LittleEndian.PutUint64(b[off:], math.Float64bits(in.Val))
			off += 8
		}
	}
}

// WireResponse is a decoded binary response frame (client side).
type WireResponse struct {
	X        [][]float64
	Fp       string // hex, empty when the server returned no fingerprint
	Fused    int
	Width    int
	Strategy string
	Executed int64
	TraceID  string // hex, empty when the server sent no trace ID
	// Status/ErrMsg are set when the frame is an error response.
	Status int
	ErrMsg string
}

// DecodeResponseFrame parses a binary response frame. It copies the
// solutions out of the buffer (clients keep results after the
// connection buffer is reused), so it does not require alignment.
func DecodeResponseFrame(buf []byte) (*WireResponse, error) {
	_, sects, err := parseSections(buf, nil)
	if err != nil {
		return nil, err
	}
	resp := &WireResponse{}
	var solPayload []byte
	var solCount uint32
	for _, s := range sects {
		payload := buf[s.off : uint64(s.off)+uint64(s.length)]
		switch s.typ {
		case secSolutions:
			if s.count == 0 || s.length%8 != 0 || uint64(s.length) < 8*uint64(s.count) ||
				uint64(s.length/8)%uint64(s.count) != 0 {
				return nil, fmt.Errorf("solutions section: %d bytes for %d vectors", s.length, s.count)
			}
			solPayload, solCount = payload, s.count
		case secRespFp:
			if s.length != 8 {
				return nil, fmt.Errorf("fp section: %d bytes, want 8", s.length)
			}
			if fp := binary.LittleEndian.Uint64(payload); fp != 0 {
				resp.Fp = fmt.Sprintf("%016x", fp)
			}
		case secInfo:
			if s.length != 16 {
				return nil, fmt.Errorf("info section: %d bytes, want 16", s.length)
			}
			resp.Fused = int(binary.LittleEndian.Uint32(payload))
			resp.Width = int(binary.LittleEndian.Uint32(payload[4:]))
			resp.Executed = int64(binary.LittleEndian.Uint64(payload[8:]))
		case secStrategy:
			resp.Strategy = string(payload)
		case secRespTraceID:
			if s.length != 8 {
				return nil, fmt.Errorf("trace_id section: %d bytes, want 8", s.length)
			}
			if tid := binary.LittleEndian.Uint64(payload); tid != 0 {
				resp.TraceID = fmt.Sprintf("%016x", tid)
			}
		case secError:
			resp.Status = int(s.count)
			resp.ErrMsg = string(payload)
		default:
			return nil, fmt.Errorf("unknown response section type %d", s.typ)
		}
	}
	if solPayload != nil {
		k := int(solCount)
		n := len(solPayload) / 8 / k
		resp.X = make([][]float64, k)
		for j := 0; j < k; j++ {
			resp.X[j] = make([]float64, n)
			getFloat64s(resp.X[j], solPayload[8*j*n:])
		}
	}
	return resp, nil
}
