package transform

import (
	"context"
	"hash/crc32"
	"math"
	"testing"

	"doconsider/internal/core"
	"doconsider/internal/executor"
)

// parseSeeds are FuzzParse's seed corpus; FuzzTransform starts from them
// too.
var parseSeeds = []string{
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

// FuzzParse ensures the DSL parser never panics on arbitrary input; it may
// only return errors. Run with `go test -fuzz=FuzzParse ./internal/transform`
// for continuous fuzzing; the seed corpus runs as a normal test.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
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

// FuzzTransform is the transform's differential oracle: every loop Analyze
// accepts is bound to small deterministic data (fuzzEnv) and run through
// Inspect and core.New under the self-executing and pre-scheduled
// executors at P = 4. Each run must leave the arrays bit for bit as
// RunSequential does, or fail where RunSequential fails. Run with
// `go test -run '^$' -fuzz '^FuzzTransform$' ./internal/transform`.
func FuzzTransform(f *testing.F) {
	seeds := append([]string{
		notStartTimeInnerBound,
		notStartTimeNestedRead,
		"doconsider i = 1, n-1\n t = x(i-1)\n x(i) = t*b(i) + x(i)\nenddo",
		"doconsider i = 0, n-1\n temp = f(i)\n y(i) = y(i) + temp*y(g(i))\nenddo",
		"doconsider i = 0, n-1\n do j = 0, 2\n  do k = 0, 1\n   x(i) = x(i) + w(j)*v(k)\n  enddo\n enddo\nenddo",
		"doconsider i = 0, n-1\n x(i) = x(n-1-i) / x(ia(i))\nenddo",
	}, parseSeeds...)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		loop, err := Parse(src)
		if err != nil {
			return
		}
		a, err := Analyze(loop)
		if err != nil {
			return
		}
		// Keep each input's interpretation small: skip loops whose inner
		// loops the data cannot bound, or that would run long.
		if work, ok := fuzzWork(loop.Body, map[string]float64{}, scalarTargets(loop.Body)); !ok || work > 2000 {
			return
		}
		checkTransformed(t, a, func() *Env { return fuzzEnv(a) })
	})
}

// checkTransformed runs a under RunSequential and under the inspector and
// both executors of the paper at P = 4, each on a fresh binding, and
// requires the same arrays bit for bit, or a failure on both routes.
func checkTransformed(t *testing.T, a *Analysis, bind func() *Env) {
	t.Helper()
	seq := bind()
	seqErr := a.RunSequential(seq)
	for _, kind := range []executor.Kind{executor.SelfExecuting, executor.PreScheduled} {
		par := bind()
		err := runTransformed(a, par, kind)
		switch {
		case seqErr != nil && err != nil:
			continue
		case seqErr != nil:
			t.Fatalf("%v: RunSequential failed (%v) but the transformed run did not", kind, seqErr)
		case err != nil:
			t.Fatalf("%v: transformed run failed: %v", kind, err)
		}
		for name, want := range seq.Float {
			for i, w := range want {
				if g := par.Float[name][i]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%v: %s(%d) = %v, RunSequential gives %v", kind, name, i, g, w)
				}
			}
		}
	}
}

// runTransformed is the transformed loop: Inspect, core.New, ExecutorBody.
func runTransformed(a *Analysis, env *Env, kind executor.Kind) error {
	deps, err := a.Inspect(env)
	if err != nil {
		return err
	}
	rt, err := core.New(deps, core.WithProcs(4), core.WithExecutor(kind))
	if err != nil {
		return err
	}
	body, err := a.ExecutorBody(env)
	if err != nil {
		return err
	}
	_, err = rt.RunCtx(context.Background(), body)
	return err
}

// fuzzLen is the value of every scalar FuzzTransform binds; every array
// it binds has fuzzLen+1 entries.
const fuzzLen = 8

// fuzzEnv binds every name a's loop references. Scalars are fuzzLen.
// Arrays read in an integer context (a.IntArrays and the loop's bounds)
// are int32 in [0, fuzzLen]; the written array and every other array
// hold halves in [-1.5, 1.5], zero among them. Entries derive from the array's name, so
// a name always binds the same data.
func fuzzEnv(a *Analysis) *Env {
	env := NewEnv()
	isInt := map[string]bool{}
	for _, name := range a.IntArrays {
		isInt[name] = true
	}
	var expr func(e Expr, intCtx bool)
	expr = func(e Expr, intCtx bool) {
		switch v := e.(type) {
		case Ident:
			env.Scalars[v.Name] = fuzzLen
		case Ref:
			h := int(crc32.ChecksumIEEE([]byte(v.Name)) % 64)
			if (intCtx || isInt[v.Name]) && v.Name != a.Written {
				env.Int[v.Name] = make([]int32, fuzzLen+1)
				for k := range env.Int[v.Name] {
					env.Int[v.Name][k] = int32((h + 5*k) % (fuzzLen + 1))
				}
			} else {
				env.Float[v.Name] = make([]float64, fuzzLen+1)
				for k := range env.Float[v.Name] {
					env.Float[v.Name][k] = float64((h+3*k)%7-3) / 2
				}
			}
			expr(v.Sub, true)
		case Bin:
			expr(v.L, intCtx)
			expr(v.R, intCtx)
		case Neg:
			expr(v.X, intCtx)
		}
	}
	var stmts func([]Stmt)
	stmts = func(body []Stmt) {
		for _, st := range body {
			switch s := st.(type) {
			case Assign:
				expr(s.RHS, false)
				if s.Array != "" {
					expr(Ref{Name: s.Array, Sub: s.Sub}, false)
				}
			case InnerLoop:
				expr(s.Lo, true)
				expr(s.Hi, true)
				stmts(s.Body)
			}
		}
	}
	expr(a.Loop.Lo, true)
	expr(a.Loop.Hi, true)
	stmts(a.Loop.Body)
	return env
}

// scalarTargets returns the scalars body assigns.
func scalarTargets(body []Stmt) map[string]bool {
	targets := map[string]bool{}
	for _, st := range body {
		switch s := st.(type) {
		case Assign:
			if s.Scalar != "" {
				targets[s.Scalar] = true
			}
		case InnerLoop:
			for name := range scalarTargets(s.Body) {
				targets[name] = true
			}
		}
	}
	return targets
}

// fuzzWork bounds the statements one outer iteration of body runs on
// fuzzEnv's data; vars bounds the inner-loop variables in scope. ok is
// false when an inner loop's bound has no bound: it reads a temporary or
// divides.
func fuzzWork(body []Stmt, vars map[string]float64, temps map[string]bool) (work float64, ok bool) {
	for _, st := range body {
		work++
		l, isLoop := st.(InnerLoop)
		if !isLoop {
			continue
		}
		lo, okLo := fuzzMag(l.Lo, vars, temps)
		hi, okHi := fuzzMag(l.Hi, vars, temps)
		if !okLo || !okHi {
			return 0, false
		}
		vars[l.Var] = max(lo, hi)
		inner, ok := fuzzWork(l.Body, vars, temps)
		delete(vars, l.Var) // as the interpreter unbinds it
		if !ok {
			return 0, false
		}
		work += (lo + hi + 1) * inner
	}
	return work, true
}

// fuzzMag bounds |e| on fuzzEnv's data.
func fuzzMag(e Expr, vars map[string]float64, temps map[string]bool) (float64, bool) {
	switch v := e.(type) {
	case Num:
		return math.Abs(v.Val), true
	case Ident:
		m, ok := vars[v.Name]
		if !ok {
			m = fuzzLen
		}
		return m, !temps[v.Name]
	case Ref:
		return fuzzLen, true
	case Neg:
		return fuzzMag(v.X, vars, temps)
	case Bin:
		l, okL := fuzzMag(v.L, vars, temps)
		r, okR := fuzzMag(v.R, vars, temps)
		switch v.Op {
		case '+', '-':
			return l + r, okL && okR
		case '*':
			return l * r, okL && okR
		}
	}
	return 0, false
}
