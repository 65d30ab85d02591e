//go:build !race

package server

import (
	"io"
	"net/http"
	"testing"

	"doconsider/internal/arena"
)

// blankReader yields n bytes without writing them, so a body of
// MaxFrameBytes costs the test only what readBody itself reserves.
type blankReader struct{ n int }

func (b *blankReader) Read(p []byte) (int, error) {
	if b.n == 0 {
		return 0, io.EOF
	}
	k := min(len(p), b.n)
	b.n -= k
	return k, nil
}

// TestReadBodyChunkedAtLimit drives readBody's path for a body without
// Content-Length at the frame limit: a body of exactly MaxFrameBytes is
// read into a buffer no larger than the limit plus one byte, and one
// byte more is refused. (Not built under -race: the detector's shadow
// of the 64 MiB copies would multiply the test's footprint.)
func TestReadBodyChunkedAtLimit(t *testing.T) {
	pool := arena.NewPool(arena.Config{RegionBytes: 1 << 22, SlabBytes: 1 << 18, MinBlock: 1 << 12})
	for _, c := range []struct {
		size int
		ok   bool
	}{{MaxFrameBytes, true}, {MaxFrameBytes + 1, false}} {
		a := pool.Get()
		r := &http.Request{ContentLength: -1, Body: io.NopCloser(&blankReader{c.size})}
		buf, err := readBody(r, a)
		if c.ok {
			if err != nil {
				t.Fatalf("%d-byte body: %v", c.size, err)
			}
			if len(buf) != c.size || cap(buf) > MaxFrameBytes+1 {
				t.Fatalf("%d-byte body: len %d cap %d, want len %d cap <= %d",
					c.size, len(buf), cap(buf), c.size, MaxFrameBytes+1)
			}
		} else if err == nil {
			t.Fatalf("%d-byte body accepted, limit %d", c.size, MaxFrameBytes)
		}
		a.Release()
	}
}
