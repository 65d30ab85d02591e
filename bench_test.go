// Benchmarks regenerating the paper's tables and figures, plus kernel
// benchmarks for the substrate. Each BenchmarkTableN/BenchmarkFigN target
// corresponds to one artifact of the paper's evaluation section; the
// simulator-backed ones report the paper-shaped metrics (times in work
// units, efficiencies) and the executor-backed ones measure real
// goroutine wall time on the host.
package doconsider

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"doconsider/internal/core"
	"doconsider/internal/executor"
	"doconsider/internal/ilu"
	"doconsider/internal/krylov"
	"doconsider/internal/machine"
	"doconsider/internal/problems"
	"doconsider/internal/schedule"
	"doconsider/internal/stencil"
	"doconsider/internal/synthetic"
	"doconsider/internal/tables"
	"doconsider/internal/trisolve"
	"doconsider/internal/wavefront"
)

// --- Table 1: PCGPAK self-executing vs pre-scheduled --------------------

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := tables.Table1(problems.Names(), tables.DefaultProcs, 50)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.PreTime/r.SelfTime, "preOverSelf_"+r.Problem)
			}
		}
	}
}

// BenchmarkTable1Solver measures the real (goroutine) PCGPAK-style solver
// end to end on the host for both executor kinds.
func BenchmarkTable1Solver(b *testing.B) {
	a := stencil.SPE4()
	ones := make([]float64, a.N)
	rhs := make([]float64, a.N)
	for i := range ones {
		ones[i] = 1
	}
	if err := a.MatVec(rhs, ones); err != nil {
		b.Fatal(err)
	}
	for _, kind := range []executor.Kind{executor.SelfExecuting, executor.PreScheduled} {
		b.Run(kind.String(), func(b *testing.B) {
			procs := runtime.GOMAXPROCS(0)
			for i := 0; i < b.N; i++ {
				x := make([]float64, a.N)
				_, err := krylov.Solve(a, x, rhs, krylov.SolverConfig{
					Method: krylov.MethodGMRES, Procs: procs, Kind: kind,
					Opts: krylov.Options{Tol: 1e-8, MaxIter: 200, Restart: 30},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Tables 2 and 3: triangular solve decompositions --------------------

func BenchmarkTable2SelfExecuting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := tables.TriSolveDecomposition(problems.TriSolveNames(),
			tables.DefaultProcs, machine.SelfExecutingSim, machine.MultimaxCosts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.SymbolicEff, "symbEff_"+r.Problem)
			}
		}
	}
}

func BenchmarkTable3PreScheduled(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := tables.TriSolveDecomposition(problems.TriSolveNames(),
			tables.DefaultProcs, machine.PreScheduledSim, machine.MultimaxCosts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTriSolveExecutors measures real goroutine triangular solves per
// executor/scheduler on the host (the mechanism behind Tables 2-3).
func BenchmarkTriSolveExecutors(b *testing.B) {
	p := problems.MustGet("5-PT")
	n := p.L.N
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = 1
	}
	procs := runtime.GOMAXPROCS(0)
	cases := []struct {
		name  string
		kind  executor.Kind
		sched trisolve.SchedulerKind
	}{
		{"sequential", executor.Sequential, trisolve.GlobalSched},
		{"selfexec-global", executor.SelfExecuting, trisolve.GlobalSched},
		{"selfexec-local", executor.SelfExecuting, trisolve.LocalSched},
		{"presched-global", executor.PreScheduled, trisolve.GlobalSched},
		{"presched-local", executor.PreScheduled, trisolve.LocalSched},
		{"doacross", executor.SelfExecuting, trisolve.NaturalSched},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			plan, err := trisolve.NewPlan(p.L, true,
				trisolve.WithProcs(procs), trisolve.WithKind(c.kind),
				trisolve.WithScheduler(c.sched))
			if err != nil {
				b.Fatal(err)
			}
			x := make([]float64, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan.Solve(x, rhs)
			}
		})
	}
}

// --- Table 4: projections ------------------------------------------------

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := tables.Table4(problems.TriSolveNames(), []int{16, 32, 64}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 5: local vs global scheduling cost --------------------------

func BenchmarkTable5(b *testing.B) {
	names := append([]string{"SPE2", "SPE5", "5-PT", "9-PT"}, problems.SyntheticNames()...)
	for i := 0; i < b.N; i++ {
		if _, err := tables.Table5(names, tables.DefaultProcs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5Inspector measures the individual inspector stages the
// table reports: sequential sweep, parallel sweep, global and local
// schedule construction.
func BenchmarkTable5Inspector(b *testing.B) {
	p := problems.MustGet("9-PT")
	wf := p.Wf
	b.Run("seq-sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := wavefront.Compute(p.Deps); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("par-sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.ParallelSweep(p.Deps, tables.DefaultProcs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("global-schedule", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			schedule.Global(wf, tables.DefaultProcs)
		}
	})
	b.Run("local-schedule", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			schedule.Local(wf, tables.DefaultProcs, schedule.Striped)
		}
	})
}

// --- Figures ------------------------------------------------------------

func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := tables.Figure12(16)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(pts[15].BarrierE, "barrierEff@16")
			b.ReportMetric(pts[15].SelfExecE, "selfEff@16")
		}
	}
}

func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := tables.Figure13(17, 200, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ------------------------------------------------------------

// BenchmarkAblationPartition compares wrapped vs blocked local partitions
// under self-execution on the mesh problem.
func BenchmarkAblationPartition(b *testing.B) {
	p := problems.MustGet("65mesh")
	costs := machine.MultimaxCosts()
	for _, part := range []schedule.Partition{schedule.Striped, schedule.Blocked} {
		b.Run(part.String(), func(b *testing.B) {
			s := schedule.Local(p.Wf, 16, part)
			var makespan float64
			for i := 0; i < b.N; i++ {
				r, err := machine.SimulateSelfExecuting(s, p.Deps, p.Work, costs)
				if err != nil {
					b.Fatal(err)
				}
				makespan = r.Makespan
			}
			b.ReportMetric(makespan, "makespan")
		})
	}
}

// BenchmarkAblationILULevel shows how fill level moves the executor
// tradeoff: more fill, longer chains, fewer/fatter wavefronts.
func BenchmarkAblationILULevel(b *testing.B) {
	a := stencil.FivePoint(40)
	costs := machine.MultimaxCosts()
	for _, lvl := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("level%d", lvl), func(b *testing.B) {
			pat, err := ilu.Symbolic(a, lvl)
			if err != nil {
				b.Fatal(err)
			}
			fact, err := ilu.NumericSeq(a, pat)
			if err != nil {
				b.Fatal(err)
			}
			l := fact.L()
			deps := wavefront.FromLower(l)
			wf, err := wavefront.Compute(deps)
			if err != nil {
				b.Fatal(err)
			}
			work := problems.RowWork(l)
			s := schedule.Global(wf, 16)
			var ratio float64
			for i := 0; i < b.N; i++ {
				self, err := machine.SimulateSelfExecuting(s, deps, work, costs)
				if err != nil {
					b.Fatal(err)
				}
				pre := machine.SimulatePreScheduled(s, work, costs)
				ratio = pre.Makespan / self.Makespan
			}
			b.ReportMetric(float64(wavefront.NumWavefronts(wf)), "phases")
			b.ReportMetric(ratio, "preOverSelf")
		})
	}
}

// BenchmarkAblationNUMA contrasts the uniform shared-memory model with the
// hierarchical-memory projection (§5.1.3 extension): remote busy-wait
// checks at 10x local cost move the executor crossover.
func BenchmarkAblationNUMA(b *testing.B) {
	p := problems.MustGet("5-PT")
	gs := schedule.Global(p.Wf, 16)
	b.Run("uniform", func(b *testing.B) {
		var self, pre float64
		for i := 0; i < b.N; i++ {
			r, err := machine.SimulateSelfExecuting(gs, p.Deps, p.Work, machine.MultimaxCosts())
			if err != nil {
				b.Fatal(err)
			}
			self = r.Makespan
			pre = machine.SimulatePreScheduled(gs, p.Work, machine.MultimaxCosts()).Makespan
		}
		b.ReportMetric(pre/self, "preOverSelf")
	})
	b.Run("numa", func(b *testing.B) {
		var self, pre float64
		for i := 0; i < b.N; i++ {
			r, err := machine.SimulateSelfExecutingNUMA(gs, p.Deps, p.Work, machine.DefaultNUMACosts())
			if err != nil {
				b.Fatal(err)
			}
			self = r.Makespan
			pre = machine.SimulatePreScheduledNUMA(gs, p.Work, machine.DefaultNUMACosts()).Makespan
		}
		b.ReportMetric(pre/self, "preOverSelf")
	})
}

// BenchmarkAblationMergePhases measures the barrier reduction of the
// reference-[13] phase coalescing on a merging-friendly structure.
func BenchmarkAblationMergePhases(b *testing.B) {
	n := 4096
	adj := make([][]int32, n)
	for i := 1; i < n; i++ {
		if i%16 != 0 {
			adj[i] = []int32{int32(i - 1)}
		}
	}
	deps := wavefront.FromAdjacency(adj)
	wf, err := wavefront.Compute(deps)
	if err != nil {
		b.Fatal(err)
	}
	s := schedule.Local(wf, 8, schedule.Blocked)
	var merged *schedule.Schedule
	for i := 0; i < b.N; i++ {
		merged = schedule.MergePhases(s, deps)
	}
	b.ReportMetric(float64(s.NumPhases), "phasesBefore")
	b.ReportMetric(float64(merged.NumPhases), "phasesAfter")
}

// --- Kernel benchmarks ----------------------------------------------------

func BenchmarkMatVec(b *testing.B) {
	p := problems.MustGet("5-PT")
	x := make([]float64, p.A.N)
	y := make([]float64, p.A.N)
	for i := range x {
		x[i] = 1
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := p.A.MatVec(y, x); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkWavefrontSweep(b *testing.B) {
	p := problems.MustGet("L5-PT")
	b.ReportMetric(float64(p.Deps.N), "indices")
	for i := 0; i < b.N; i++ {
		if _, err := wavefront.Compute(p.Deps); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkILUFactorization(b *testing.B) {
	a := stencil.FivePoint(63)
	for _, lvl := range []int{0, 1} {
		b.Run(fmt.Sprintf("symbolic-level%d", lvl), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ilu.Symbolic(a, lvl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	pat, err := ilu.Symbolic(a, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("numeric-seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ilu.NumericSeq(a, pat); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("numeric-parallel", func(b *testing.B) {
		procs := runtime.GOMAXPROCS(0)
		for i := 0; i < b.N; i++ {
			if _, _, err := ilu.NumericParallel(a, pat, procs,
				executor.SelfExecuting, ilu.GlobalSchedule); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSimpleLoop(b *testing.B) {
	const n = 100000
	rng := rand.New(rand.NewSource(1))
	ia := make([]int32, n)
	coeff := make([]float64, n)
	x := make([]float64, n)
	for i := range ia {
		ia[i] = int32(rng.Intn(n))
		coeff[i] = 0.1
		x[i] = 1
	}
	b.Run("inspector", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.NewSimpleLoop(ia, core.WithProcs(runtime.GOMAXPROCS(0))); err != nil {
				b.Fatal(err)
			}
		}
	})
	loop, err := core.NewSimpleLoop(ia, core.WithProcs(runtime.GOMAXPROCS(0)))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("executor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			loop.Run(x, coeff)
		}
	})
}

// BenchmarkRuntimeRepeatedRun measures the full core.Runtime.Run wrapper
// path (strategy dispatch + executor) under repeated invocation — the
// acceptance experiment for the runner: after warm-up, Runtime.Run of
// every parallel kind must report 0 allocs/op and spawn no goroutines.
// The processor count is fixed at 4 so the schedule has lists to share
// whatever the host's width.
func BenchmarkRuntimeRepeatedRun(b *testing.B) {
	a := stencil.Laplace2D(120, 120)
	deps := wavefront.FromLower(a)
	body := func(int32) {}
	for _, kind := range []executor.Kind{executor.PreScheduled, executor.SelfExecuting, executor.DoAcross, executor.Pooled} {
		b.Run(kind.String(), func(b *testing.B) {
			rt, err := core.New(deps, core.WithProcs(4), core.WithExecutor(kind))
			if err != nil {
				b.Fatal(err)
			}
			rt.Run(body) // warm-up: sizes the pass state's ready array
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.Run(body)
			}
		})
	}
}

func BenchmarkSyntheticGenerator(b *testing.B) {
	cfg := synthetic.Config{Mesh: 65, Degree: 4, Distance: 3, Seed: 1}
	for i := 0; i < b.N; i++ {
		synthetic.Generate(cfg)
	}
}

func BenchmarkGMRESIteration(b *testing.B) {
	a := stencil.FivePoint(40)
	rhs := make([]float64, a.N)
	for i := range rhs {
		rhs[i] = 1
	}
	prec, err := krylov.NewILUPrec(a, krylov.ILUPrecOptions{
		Level: 0, Procs: runtime.GOMAXPROCS(0), Kind: executor.SelfExecuting,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		x := make([]float64, a.N)
		if _, err := krylov.GMRES(a, x, rhs, prec,
			krylov.Options{Tol: 1e-8, MaxIter: 100, Restart: 20,
				Procs: runtime.GOMAXPROCS(0)}); err != nil {
			b.Fatal(err)
		}
	}
}
