package doconsider

import (
	"math"
	"math/rand"
	"testing"

	"doconsider/internal/core"
	"doconsider/internal/executor"
	"doconsider/internal/ilu"
	"doconsider/internal/krylov"
	"doconsider/internal/machine"
	"doconsider/internal/problems"
	"doconsider/internal/reorder"
	"doconsider/internal/schedule"
	"doconsider/internal/synthetic"
	"doconsider/internal/transform"
	"doconsider/internal/trisolve"
	"doconsider/internal/vec"
	"doconsider/internal/wavefront"
)

// TestEndToEndPipeline exercises the whole system the way a user would:
// generate a workload, inspect, schedule, execute with every executor, and
// verify all answers agree with sequential execution.
func TestEndToEndPipeline(t *testing.T) {
	a := synthetic.Generate(synthetic.Config{Mesh: 25, Degree: 4, Distance: 2, Seed: 42})
	deps := wavefront.FromLower(a)
	wf, err := wavefront.Compute(deps)
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, a.N)
	rng := rand.New(rand.NewSource(1))
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	want := make([]float64, a.N)
	if err := trisolve.ForwardSeq(a, want, rhs); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []executor.Kind{executor.PreScheduled, executor.SelfExecuting, executor.DoAcross} {
		for _, schedKind := range []trisolve.SchedulerKind{trisolve.GlobalSched, trisolve.LocalSched} {
			plan, err := trisolve.NewPlan(a, true,
				trisolve.WithProcs(7), trisolve.WithKind(kind), trisolve.WithScheduler(schedKind))
			if err != nil {
				t.Fatal(err)
			}
			x := make([]float64, a.N)
			plan.Solve(x, rhs)
			if d := vec.MaxAbsDiff(x, want); d > 1e-12 {
				t.Errorf("kind=%v sched=%v: diff %v", kind, schedKind, d)
			}
		}
	}
	// Cost-model and goroutine executors must agree on the phase structure.
	s := schedule.Global(wf, 7)
	if _, err := machine.SimulateSelfExecuting(s, deps, problems.RowWork(a), machine.MultimaxCosts()); err != nil {
		t.Fatal(err)
	}
}

// TestEndToEndKrylovWithReordering solves a PDE system before and after a
// random shuffle + RCM reordering; both must converge to the same solution
// in the original numbering.
func TestEndToEndKrylovWithReordering(t *testing.T) {
	p := problems.MustGet("SPE4")
	a := p.A
	ones := make([]float64, a.N)
	vec.Fill(ones, 1)
	rhs := make([]float64, a.N)
	if err := a.MatVec(rhs, ones); err != nil {
		t.Fatal(err)
	}
	xOrig := make([]float64, a.N)
	out, err := krylov.Solve(a, xOrig, rhs, krylov.SolverConfig{
		Method: krylov.MethodGMRES, Procs: 4, Kind: executor.SelfExecuting,
		Opts: krylov.Options{Tol: 1e-10, MaxIter: 400, Restart: 30},
	})
	if err != nil || !out.Result.Converged {
		t.Fatalf("original solve failed: %v %+v", err, out.Result)
	}
	// Permuted system.
	rng := rand.New(rand.NewSource(3))
	perm := make([]int32, a.N)
	for i, v := range rng.Perm(a.N) {
		perm[i] = int32(v)
	}
	pm, err := reorder.NewPermutation(perm)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := pm.Apply(a)
	if err != nil {
		t.Fatal(err)
	}
	prhs := make([]float64, a.N)
	pm.PermuteVector(prhs, rhs)
	xPerm := make([]float64, a.N)
	out2, err := krylov.Solve(pa, xPerm, prhs, krylov.SolverConfig{
		Method: krylov.MethodGMRES, Procs: 4, Kind: executor.PreScheduled,
		Opts: krylov.Options{Tol: 1e-10, MaxIter: 400, Restart: 30},
	})
	if err != nil || !out2.Result.Converged {
		t.Fatalf("permuted solve failed: %v %+v", err, out2.Result)
	}
	back := make([]float64, a.N)
	pm.UnpermuteVector(back, xPerm)
	for i := range back {
		if math.Abs(back[i]-1) > 1e-6 || math.Abs(xOrig[i]-1) > 1e-6 {
			t.Fatalf("solutions wrong at %d: %v %v", i, back[i], xOrig[i])
		}
	}
}

// TestEndToEndTransformPipeline drives a DSL loop through parse → analyze
// → inspect → core runtime with merged phases, against the interpreter's
// sequential semantics.
func TestEndToEndTransformPipeline(t *testing.T) {
	src := `
doconsider i = 0, n-1
  x(i) = x(i) + b(i)*x(ia(i))
enddo
`
	loop, err := transform.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	an, err := transform.Analyze(loop)
	if err != nil {
		t.Fatal(err)
	}
	n := 500
	rng := rand.New(rand.NewSource(4))
	mkEnv := func() *transform.Env {
		rng := rand.New(rand.NewSource(5))
		env := transform.NewEnv()
		x := make([]float64, n)
		b := make([]float64, n)
		ia := make([]int32, n)
		for i := 0; i < n; i++ {
			x[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64() * 0.3
			ia[i] = int32(rng.Intn(n))
		}
		env.Float["x"] = x
		env.Float["b"] = b
		env.Int["ia"] = ia
		env.Scalars["n"] = n
		return env
	}
	_ = rng
	seqEnv := mkEnv()
	if err := an.RunSequential(seqEnv); err != nil {
		t.Fatal(err)
	}
	parEnv := mkEnv()
	deps, err := an.Inspect(parEnv)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.New(deps, core.WithProcs(6),
		core.WithExecutor(executor.PreScheduled), core.WithMergedPhases())
	if err != nil {
		t.Fatal(err)
	}
	body, err := an.ExecutorBody(parEnv)
	if err != nil {
		t.Fatal(err)
	}
	rt.Run(body)
	if d := vec.MaxAbsDiff(seqEnv.Float["x"], parEnv.Float["x"]); d != 0 {
		t.Errorf("pipeline differs by %v", d)
	}
}

// TestEndToEndILUConsistency checks that every factorization path
// (sequential/parallel symbolic × sequential/parallel numeric) produces
// identical factors on a reservoir-style problem.
func TestEndToEndILUConsistency(t *testing.T) {
	a := problems.MustGet("SPE4").A
	patSeq, err := ilu.Symbolic(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	patPar, err := ilu.SymbolicParallel(a, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	fSeq, err := ilu.NumericSeq(a, patSeq)
	if err != nil {
		t.Fatal(err)
	}
	fPar, _, err := ilu.NumericParallel(a, patPar, 8, executor.SelfExecuting, ilu.GlobalSchedule)
	if err != nil {
		t.Fatal(err)
	}
	if d := vec.MaxAbsDiff(fSeq.LU.Val, fPar.LU.Val); d != 0 {
		t.Errorf("factorization paths differ by %v", d)
	}
}
