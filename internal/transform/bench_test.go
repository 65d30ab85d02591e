package transform

import (
	"testing"
)

func BenchmarkParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Parse(trisolveSrc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInspect(b *testing.B) {
	loop, err := Parse(simpleLoopSrc)
	if err != nil {
		b.Fatal(err)
	}
	a, err := Analyze(loop)
	if err != nil {
		b.Fatal(err)
	}
	env := buildSimpleEnv(10000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Inspect(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpretedExecutorBody(b *testing.B) {
	loop, err := Parse(simpleLoopSrc)
	if err != nil {
		b.Fatal(err)
	}
	a, err := Analyze(loop)
	if err != nil {
		b.Fatal(err)
	}
	env := buildSimpleEnv(10000, 2)
	body, err := a.ExecutorBody(env)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body(int32(i % 10000))
	}
}
