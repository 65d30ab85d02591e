package transform

import "testing"

// FuzzParse ensures the DSL parser never panics on arbitrary input; it may
// only return errors. Run with `go test -fuzz=FuzzParse ./internal/transform`
// for continuous fuzzing; the seed corpus runs as a normal test.
func FuzzParse(f *testing.F) {
	seeds := []string{
		simpleLoopSrc,
		trisolveSrc,
		"doconsider i = 0, n-1\nenddo",
		"forconsider j = 1, m\n y(j) = y(j)/2\nend do",
		"doconsider i = 0, n\n x(i) = -x(i) + (a(i)*b(i))/c(i) ! comment\nenddo",
		"doconsider i = 0, n\n do j = p(i), p(i+1)-1\n  x(i) = x(i) - v(j)*x(idx(j))\n enddo\nenddo",
		"",
		"(((((",
		"doconsider",
		"doconsider i = , \n",
		"doconsider i = 0, n\n x(i) = 1",
		"doconsider i = 0, n\n 5 = x\nenddo",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		loop, err := Parse(src)
		if err != nil {
			return
		}
		// Anything that parses must print its header and analyze or error
		// cleanly.
		_ = loop.String()
		_, _ = Analyze(loop)
	})
}
