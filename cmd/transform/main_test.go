package main

import (
	"bytes"
	"strings"
	"testing"
)

const loopSrc = `doconsider i = 0, n-1
  x(i) = x(i) + b(i)*x(ia(i))
enddo
`

func TestRunStdin(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, strings.NewReader(loopSrc), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{`writes "x", 1 self read(s), 1 indirect read(s)`, "subscript-carrying arrays: [ia]"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunParseError(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, strings.NewReader("not a loop"), &out); err == nil {
		t.Error("accepted garbage input")
	}
}

func TestRunMissingFile(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"/no/such/file.loop"}, strings.NewReader(""), &out); err == nil {
		t.Error("accepted missing file")
	}
}
