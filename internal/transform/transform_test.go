package transform

import (
	"math/rand"
	"testing"

	"doconsider/internal/core"
	"doconsider/internal/executor"
	"doconsider/internal/sparse"
	"doconsider/internal/stencil"
	"doconsider/internal/trisolve"
	"doconsider/internal/vec"
	"doconsider/internal/wavefront"
)

const simpleLoopSrc = `
doconsider i = 0, n-1
  x(i) = x(i) + b(i)*x(ia(i))
enddo
`

const trisolveSrc = `
doconsider i = 0, n-1
  y(i) = rhs(i)
  do j = ija(i), ija(i+1)-1
    y(i) = y(i) - a(j)*y(ja(j))
  enddo
enddo
`

func TestParseSimpleLoop(t *testing.T) {
	loop, err := Parse(simpleLoopSrc)
	if err != nil {
		t.Fatal(err)
	}
	if loop.Var != "i" {
		t.Errorf("loop var %q", loop.Var)
	}
	if len(loop.Body) != 1 {
		t.Fatalf("body has %d statements", len(loop.Body))
	}
	if loop.String() == "" {
		t.Error("empty loop string")
	}
}

func TestParseNestedLoop(t *testing.T) {
	loop, err := Parse(trisolveSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(loop.Body) != 2 {
		t.Fatalf("body has %d statements", len(loop.Body))
	}
	if _, ok := loop.Body[1].(InnerLoop); !ok {
		t.Fatal("second statement should be the inner loop")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"do i = 0, n\nenddo",                       // not doconsider
		"doconsider i = 0, n\n x(i) = 1",           // missing enddo
		"doconsider i = 0 n\n x(i)=1\nenddo",       // missing comma
		"doconsider i = 0, n\n x(i = 1\nenddo",     // bad paren
		"doconsider i = 0, n\n x(i) = $\nenddo",    // bad char
		"doconsider i = 0, n\n x(i) = 1\nenddo\nz", // trailing junk
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse accepted %q", src)
		}
	}
}

func TestParseComments(t *testing.T) {
	src := "doconsider i = 0, n-1 ! outer\n x(i) = x(i) + 1 ! bump\nend do\n"
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeSimpleLoop(t *testing.T) {
	loop, err := Parse(simpleLoopSrc)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(loop)
	if err != nil {
		t.Fatal(err)
	}
	if a.Written != "x" {
		t.Errorf("written = %q", a.Written)
	}
	if a.SelfReads != 1 || a.IndirectReads != 1 {
		t.Errorf("reads: self=%d indirect=%d", a.SelfReads, a.IndirectReads)
	}
	found := false
	for _, n := range a.IntArrays {
		if n == "ia" {
			found = true
		}
	}
	if !found {
		t.Errorf("IntArrays = %v, want ia", a.IntArrays)
	}
}

func TestAnalyzeRejectsNonLoopVarWrite(t *testing.T) {
	loop, err := Parse("doconsider i = 0, n-1\n x(ia(i)) = 1\nenddo")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(loop); err == nil {
		t.Error("Analyze accepted write through indirection")
	}
}

func TestAnalyzeRejectsTwoWrittenArrays(t *testing.T) {
	loop, err := Parse("doconsider i = 0, n-1\n x(i) = 1\n y(i) = 2\nenddo")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(loop); err == nil {
		t.Error("Analyze accepted two written arrays")
	}
}

func TestAnalyzeRejectsNoWrite(t *testing.T) {
	loop, err := Parse("doconsider i = 0, n-1\n t = 1\nenddo")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(loop); err == nil {
		t.Error("Analyze accepted loop with no array write")
	}
}

// TestAnalyzeRejectsRebindingLoopVar: a body that reassigns the loop
// variable, or an inner loop that reuses it, would write outside x(i) and
// break both the inspector's dependences and the executor's bounds.
func TestAnalyzeRejectsRebindingLoopVar(t *testing.T) {
	for _, src := range []string{
		"doconsider i = 0, n-1\n i = ia(i)\n x(i) = 1\nenddo",
		"doconsider i = 0, n-1\n do i = 0, 9\n  x(i) = 1\n enddo\nenddo",
	} {
		loop, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Analyze(loop); err == nil {
			t.Errorf("Analyze accepted %q", src)
		}
	}
}

// buildSimpleEnv binds the simple loop's arrays.
func buildSimpleEnv(n int, seed int64) *Env {
	rng := rand.New(rand.NewSource(seed))
	env := NewEnv()
	x := make([]float64, n)
	b := make([]float64, n)
	ia := make([]int32, n)
	for i := 0; i < n; i++ {
		x[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64() * 0.5
		ia[i] = int32(rng.Intn(n))
	}
	env.Float["x"] = x
	env.Float["b"] = b
	env.Int["ia"] = ia
	env.Scalars["n"] = n
	return env
}

func TestInspectMatchesFromIndirection(t *testing.T) {
	loop, _ := Parse(simpleLoopSrc)
	a, err := Analyze(loop)
	if err != nil {
		t.Fatal(err)
	}
	env := buildSimpleEnv(300, 1)
	deps, err := a.Inspect(env)
	if err != nil {
		t.Fatal(err)
	}
	want := wavefront.FromIndirection(env.Int["ia"])
	if deps.N != want.N || deps.Edges() != want.Edges() {
		t.Fatalf("deps %d/%d edges, want %d/%d", deps.N, deps.Edges(), want.N, want.Edges())
	}
	for i := 0; i < deps.N; i++ {
		got := deps.On(i)
		exp := want.On(i)
		if len(got) != len(exp) {
			t.Fatalf("iteration %d: %v vs %v", i, got, exp)
		}
		for k := range got {
			if got[k] != exp[k] {
				t.Fatalf("iteration %d: %v vs %v", i, got, exp)
			}
		}
	}
}

func TestTransformedSimpleLoopMatchesSequential(t *testing.T) {
	loop, _ := Parse(simpleLoopSrc)
	a, err := Analyze(loop)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []executor.Kind{executor.PreScheduled, executor.SelfExecuting} {
		envSeq := buildSimpleEnv(400, 2)
		envPar := buildSimpleEnv(400, 2)
		if err := a.RunSequential(envSeq); err != nil {
			t.Fatal(err)
		}
		deps, err := a.Inspect(envPar)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := core.New(deps, core.WithProcs(6), core.WithExecutor(kind))
		if err != nil {
			t.Fatal(err)
		}
		body, err := a.ExecutorBody(envPar)
		if err != nil {
			t.Fatal(err)
		}
		rt.Run(body)
		if d := vec.MaxAbsDiff(envSeq.Float["x"], envPar.Float["x"]); d != 0 {
			t.Errorf("kind=%v: transformed loop differs by %v", kind, d)
		}
	}
}

// TestTransformedTriangularSolve runs the Figure 8 loop through the full
// transform pipeline on a real mesh factor and compares with trisolve.
func TestTransformedTriangularSolve(t *testing.T) {
	mesh := stencil.Laplace2D(12, 9)
	l := mesh.LowerWithDiag()
	n := l.N
	// Unit diagonal version: scale rows so the solve needs no division.
	lUnit := sparse.New(n, n, l.NNZ())
	for i := 0; i < n; i++ {
		cols, vals := l.Row(i)
		d := l.At(i, i)
		for k, c := range cols {
			if int(c) != i {
				lUnit.ColIdx = append(lUnit.ColIdx, c)
				lUnit.Val = append(lUnit.Val, vals[k]/d)
			}
		}
		lUnit.RowPtr[i+1] = int32(len(lUnit.ColIdx))
	}
	// DSL arrays: strictly-lower entries only; y(i) = rhs(i) - sum a(j)*y(ja(j)).
	loop, err := Parse(trisolveSrc)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(loop)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	env := NewEnv()
	env.Float["y"] = make([]float64, n)
	env.Float["rhs"] = rhs
	env.Float["a"] = lUnit.Val
	env.Int["ja"] = lUnit.ColIdx
	ija := make([]int32, n+1)
	copy(ija, lUnit.RowPtr)
	env.Int["ija"] = ija
	env.Scalars["n"] = n

	deps, err := a.Inspect(env)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.New(deps, core.WithProcs(5), core.WithExecutor(executor.SelfExecuting))
	if err != nil {
		t.Fatal(err)
	}
	body, err := a.ExecutorBody(env)
	if err != nil {
		t.Fatal(err)
	}
	rt.Run(body)

	// Reference: trisolve on the unit-diagonal factor (diagonal implicit 1).
	withDiag := lUnit.Clone()
	ts := []sparse.Triplet{}
	for i := 0; i < n; i++ {
		cols, vals := withDiag.Row(i)
		for k := range cols {
			ts = append(ts, sparse.Triplet{Row: i, Col: int(cols[k]), Val: vals[k]})
		}
		ts = append(ts, sparse.Triplet{Row: i, Col: i, Val: 1})
	}
	full := sparse.MustAssemble(n, n, ts)
	want := make([]float64, n)
	if err := trisolve.ForwardSeq(full, want, rhs); err != nil {
		t.Fatal(err)
	}
	if d := vec.MaxAbsDiff(env.Float["y"], want); d > 1e-12 {
		t.Errorf("transformed triangular solve differs by %v", d)
	}
}

func TestEnvEvalErrors(t *testing.T) {
	env := NewEnv()
	if _, err := env.eval(Ident{Name: "missing"}, locals{}, false); err == nil {
		t.Error("eval accepted unbound scalar")
	}
	if _, err := env.eval(Ref{Name: "arr", Sub: Num{Val: 0}}, locals{}, false); err == nil {
		t.Error("eval accepted unbound array")
	}
	env.Float["a"] = []float64{1}
	if _, err := env.eval(Ref{Name: "a", Sub: Num{Val: 5}}, locals{}, false); err == nil {
		t.Error("eval accepted out-of-range subscript")
	}
	if _, err := env.eval(Bin{Op: '/', L: Num{Val: 1}, R: Num{Val: 0}}, locals{}, false); err == nil {
		t.Error("eval accepted division by zero")
	}
}

// TestBindingsThatDoNotFit: every route into the interpreter checks the
// bindings against the loop before any iteration runs, and returns an
// error instead of indexing outside the written array.
func TestBindingsThatDoNotFit(t *testing.T) {
	loop, err := Parse("doconsider i = lo, hi\n x(i) = 1\nenddo")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(loop)
	if err != nil {
		t.Fatal(err)
	}
	bind := func(lo, hi int, x []float64) *Env {
		env := NewEnv()
		env.Scalars["lo"], env.Scalars["hi"] = lo, hi
		if x != nil {
			env.Float["x"] = x
		}
		return env
	}
	routes := map[string]func(*Env) error{
		"RunSequential": a.RunSequential,
		"Inspect": func(env *Env) error {
			_, err := a.Inspect(env)
			return err
		},
		"ExecutorBody": func(env *Env) error {
			_, err := a.ExecutorBody(env)
			return err
		},
	}
	for _, c := range []struct {
		name   string
		env    *Env
		wantOK bool
	}{
		{"write past the end", bind(0, 4, make([]float64, 4)), false},
		{"negative lower bound", bind(-1, 2, make([]float64, 4)), false},
		{"unbound written array", bind(0, 3, nil), false},
		{"empty loop below zero", bind(-5, -6, make([]float64, 4)), true},
		{"exact fit", bind(0, 3, make([]float64, 4)), true},
	} {
		for route, call := range routes {
			t.Run(c.name+"/"+route, func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panicked: %v", r)
					}
				}()
				if err := call(c.env); (err == nil) != c.wantOK {
					t.Errorf("err = %v, want ok = %v", err, c.wantOK)
				}
			})
		}
	}
}

func TestScalarTemporaries(t *testing.T) {
	// Figure 6 shape: temp = f(i); y(i) = y(i) + temp*y(g(i)).
	src := `
doconsider i = 0, n-1
  temp = f(i)
  y(i) = y(i) + temp*y(g(i))
enddo
`
	loop, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(loop)
	if err != nil {
		t.Fatal(err)
	}
	n := 200
	rng := rand.New(rand.NewSource(4))
	mkEnv := func() *Env {
		rng := rand.New(rand.NewSource(5))
		env := NewEnv()
		y := make([]float64, n)
		f := make([]float64, n)
		g := make([]int32, n)
		for i := 0; i < n; i++ {
			y[i] = rng.NormFloat64()
			f[i] = rng.NormFloat64() * 0.3
			g[i] = int32(rng.Intn(n))
		}
		env.Float["y"] = y
		env.Float["f"] = f
		env.Int["g"] = g
		env.Scalars["n"] = n
		return env
	}
	_ = rng
	seq := mkEnv()
	if err := a.RunSequential(seq); err != nil {
		t.Fatal(err)
	}
	par := mkEnv()
	deps, err := a.Inspect(par)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.New(deps, core.WithProcs(4))
	if err != nil {
		t.Fatal(err)
	}
	body, err := a.ExecutorBody(par)
	if err != nil {
		t.Fatal(err)
	}
	rt.Run(body)
	if d := vec.MaxAbsDiff(seq.Float["y"], par.Float["y"]); d != 0 {
		t.Errorf("scalar-temp loop differs by %v", d)
	}
}

// The two loops below read the written array in an integer context. The
// inspector cannot know their dependences before the loop runs, so
// Analyze rejects them. When it accepted them, the first loop's
// inspection found no edge, so with x = [1 0 0 ...] a self-executing run
// at P = 4 left almost every entry different from RunSequential's. The
// second loop's inspection found no edge either, so running body(1)
// before body(0) was a legal order, and with x = [0 1], ia = [1 1] and
// b = [0 20 0 0] it panicked on b(20) where RunSequential gives
// x = [20 20].
const (
	notStartTimeInnerBound = "doconsider i = 1, n-1\n do j = 1, x(i-1)\n  x(i) = x(i) + 1\n enddo\nenddo"
	notStartTimeNestedRead = "doconsider i = 0, n-1\n x(i) = b(x(ia(i)))\nenddo"
)

// TestAnalyzeRejectsNotStartTimeSchedulable: a value read from the
// written array must not reach a subscript or an inner-loop bound,
// directly or through scalar temporaries, in any order of the body.
func TestAnalyzeRejectsNotStartTimeSchedulable(t *testing.T) {
	for _, src := range []string{
		notStartTimeInnerBound,
		notStartTimeNestedRead,
		"doconsider i = 1, n-1\n t = x(i-1)\n x(i) = b(t)\nenddo",
		"doconsider i = 1, n-1\n t = 2*x(i-1)\n u = -t + 1\n do j = 0, u\n  x(i) = x(i) + 1\n enddo\nenddo",
		// t carries x(i) only from the inner loop's second pass on.
		"doconsider i = 0, n-1\n t = 0\n do j = 0, 2\n  x(i) = x(i) + b(t)\n  t = x(i)\n enddo\nenddo",
		// A read before the body assigns the array.
		"doconsider i = 1, n-1\n k = x(i-1)\n x(i) = 1\n do j = k, 2\n  x(i) = x(i) + 1\n enddo\nenddo",
	} {
		loop, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Analyze(loop); err == nil {
			t.Errorf("Analyze accepted %q", src)
		}
	}
}

// TestValueReadsStayAccepted: a read of the written array that reaches
// only values, through temporaries or not, is start-time schedulable,
// and the transformed loop matches RunSequential.
func TestValueReadsStayAccepted(t *testing.T) {
	for _, src := range []string{
		"doconsider i = 1, n-1\n t = x(i-1)\n x(i) = t*b(i) + x(i)\nenddo",
		"doconsider i = 1, n-1\n t = x(i-1)\n u = t/2\n do j = 0, ia(i)\n  x(i) = x(i) + u*b(j)\n enddo\nenddo",
	} {
		loop, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Analyze(loop)
		if err != nil {
			t.Fatalf("Analyze rejected %q: %v", src, err)
		}
		bind := func() *Env {
			env := buildSimpleEnv(300, 6)
			for k, v := range env.Int["ia"] {
				env.Int["ia"][k] = v % 4
			}
			return env
		}
		if err := a.RunSequential(bind()); err != nil {
			t.Fatal(err)
		}
		checkTransformed(t, a, bind)
	}
}
