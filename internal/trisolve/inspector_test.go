package trisolve

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"doconsider/internal/core"
	"doconsider/internal/delta"
	"doconsider/internal/executor"
	"doconsider/internal/planner"
	"doconsider/internal/problems"
	"doconsider/internal/schedule"
	"doconsider/internal/sparse"
	"doconsider/internal/synthetic"
	"doconsider/internal/wavefront"
)

// inspected is what two routes into the one inspector must agree on.
type inspected struct {
	wf    []int32
	sched *schedule.Schedule
	kind  executor.Kind
	fused bool
	dec   *planner.Decision
}

func ofPlan(p *Plan) inspected {
	return inspected{p.Wf, p.Sched, p.Kind, p.Fusion() != nil, p.Decision}
}

func ofInspection(in *core.Inspection) inspected {
	return inspected{in.Wf, in.Sched, in.Kind, in.Part != nil, in.Decision}
}

// sameInspection compares a generic route (core) against the triangular
// one (trisolve). The one allowed difference is RCM ranking, which only a
// caller holding the matrix can supply: when trisolve ranked, core must
// have recorded no reordering, and the schedules may differ within a
// level.
func sameInspection(t *testing.T, what string, generic, tri inspected) {
	t.Helper()
	if !slices.Equal(generic.wf, tri.wf) {
		t.Fatalf("%s: wavefronts differ", what)
	}
	if generic.kind != tri.kind || generic.fused != tri.fused {
		t.Fatalf("%s: core runs %v (fused %v), trisolve %v (fused %v)", what, generic.kind, generic.fused, tri.kind, tri.fused)
	}
	if tri.dec != nil && tri.dec.Reorder == planner.ReorderRCM {
		if generic.dec.Reorder != planner.ReorderNone {
			t.Fatalf("%s: core recorded %v without a rank", what, generic.dec.Reorder)
		}
		return
	}
	g, s := generic.sched, tri.sched
	if g.P != s.P || g.N != s.N || g.NumPhases != s.NumPhases || !slices.Equal(g.Idx, s.Idx) ||
		!slices.Equal(g.ProcPtr, s.ProcPtr) || !slices.Equal(g.PhasePtr, s.PhasePtr) {
		t.Fatalf("%s: schedules differ", what)
	}
}

// TestOneInspector: over the problem suite, lower and upper factors,
// adaptive and pinned kinds and every fusion mode, core.Inspect (and
// core.New, whose fusion mode is FuseAuto) over a factor's dependences and
// NewPlan over the factor yield the same inspection.
func TestOneInspector(t *testing.T) {
	m := planner.Default()
	const procs = 4
	for _, name := range problems.TriSolveNames() {
		for _, lower := range []bool{true, false} {
			l := problems.MustGet(name).L
			if !lower {
				l = l.Transpose()
			}
			deps := factorDeps(l, lower)
			for _, kind := range []executor.Kind{-1, executor.Pooled, executor.PreScheduled} {
				for _, fuse := range []FuseMode{FuseAuto, FuseForce, FuseOff} {
					what := fmt.Sprintf("%s lower=%v kind=%v fuse=%d", name, lower, kind, fuse)
					opts := []Option{WithProcs(procs), WithModel(m), WithFusion(fuse)}
					coreOpts := []core.Option{core.WithProcs(procs), core.WithModel(m)}
					cfg := core.Config{Procs: procs, Executor: executor.SelfExecuting, Model: m}
					if kind >= 0 {
						opts = append(opts, WithKind(kind))
						coreOpts = append(coreOpts, core.WithExecutor(kind))
						core.WithExecutor(kind)(&cfg)
					}
					plan, err := NewPlan(l, lower, opts...)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					in, err := core.Inspect(deps, cfg, fuse, nil)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					sameInspection(t, what, ofInspection(in), ofPlan(plan))
					if fuse == FuseAuto {
						rt, err := core.New(deps, coreOpts...)
						if err != nil {
							t.Fatalf("%s: %v", what, err)
						}
						d := rt.Decision()
						sameInspection(t, what+" core.New", inspected{rt.Wavefronts(), rt.Schedule(),
							rt.Config().Executor, d != nil && d.Fused, d}, ofPlan(plan))
						rt.Close()
					}
					plan.Close()
				}
			}
		}
	}
}

// depsEdits is the dependence edit set that turns a into b.
func depsEdits(t *testing.T, a, b *wavefront.Deps) delta.EditSet {
	t.Helper()
	rows, err := delta.DiffRows(a, b)
	if err != nil {
		t.Fatal(err)
	}
	var edits delta.EditSet
	for _, r := range rows {
		e := delta.RowEdit{Row: r}
		for _, c := range b.On(int(r)) {
			if !slices.Contains(a.On(int(r)), c) {
				e.Insert = append(e.Insert, c)
			}
		}
		for _, c := range a.On(int(r)) {
			if !slices.Contains(b.On(int(r)), c) {
				e.Delete = append(e.Delete, c)
			}
		}
		edits = append(edits, e)
	}
	return edits
}

// sameRepaired compares a repaired schedule against a cold inspection's.
// A repair splices the deal instead of re-sorting it, so within a level
// the order may differ; the levels, the processors' phase bounds and
// each phase's iterations are the same.
func sameRepaired(t *testing.T, what string, wf []int32, got *schedule.Schedule, cold *core.Inspection) {
	t.Helper()
	want := cold.Sched
	if !slices.Equal(wf, cold.Wf) {
		t.Fatalf("%s: repaired levels differ from a cold inspection", what)
	}
	if got.P != want.P || got.NumPhases != want.NumPhases || !slices.Equal(got.ProcPtr, want.ProcPtr) ||
		!slices.Equal(got.PhasePtr, want.PhasePtr) {
		t.Fatalf("%s: repaired schedule shape differs from a cold inspection", what)
	}
	for k := 0; k < want.NumPhases; k++ {
		var g, w []int32
		for p := 0; p < want.P; p++ {
			g, w = append(g, got.Phase(p, k)...), append(w, want.Phase(p, k)...)
		}
		slices.Sort(g)
		slices.Sort(w)
		if !slices.Equal(g, w) {
			t.Fatalf("%s: phase %d runs other iterations than a cold inspection", what, k)
		}
	}
}

// driftChainSeed draws the random factor of TestOneInspectorDriftChain's
// fused chain: one whose drift moves a supernode boundary.
const driftChainSeed = 4

// TestOneInspectorDriftChain: a three-step drift chain repaired through
// core.Runtime.Patch and through the plan cache's near-miss path reaches,
// at every step, the levels and schedule of a cold inspection of that
// step's structure — row-wise on a suite factor, fused on a random factor
// whose drift moves supernode boundaries, where the re-spliced partition
// and its rebuilt unit schedule are exactly the cold inspection's.
func TestOneInspectorDriftChain(t *testing.T) {
	m := planner.Default()
	for _, c := range []struct {
		name  string
		base  *sparse.CSR
		procs int
		kind  executor.Kind // -1: adaptive
	}{
		{"5-PT pooled", problems.MustGet("5-PT").L, 4, executor.Pooled},
		{"random adaptive fused", driftTestFactor(rand.New(rand.NewSource(driftChainSeed)), 600, 3), 1, -1},
	} {
		cfg := core.Config{Procs: c.procs, Executor: executor.SelfExecuting, Model: m}
		opts := []Option{WithProcs(c.procs), WithModel(m)}
		coreOpts := []core.Option{core.WithProcs(c.procs), core.WithModel(m)}
		if c.kind >= 0 {
			core.WithExecutor(c.kind)(&cfg)
			opts = append(opts, WithKind(c.kind))
			coreOpts = append(coreOpts, core.WithExecutor(c.kind))
		}
		cur := c.base
		rt, err := core.New(wavefront.FromLower(cur), coreOpts...)
		if err != nil {
			t.Fatal(err)
		}
		pc := NewPlanCache(0)
		get := func() *Plan {
			if c.kind < 0 {
				sight(t, pc, cur, true, opts...)
			}
			p, err := pc.Get(cur, true, opts...)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		get().Close()
		rng := rand.New(rand.NewSource(27))
		var part []int32 // the supernode boundaries of the previous step
		if in, err := core.Inspect(wavefront.FromLower(cur), cfg, FuseAuto, nil); err == nil && in.Part != nil {
			part = in.Part.RowPtr
		}
		moved := 0
		for step := 1; step <= 3; step++ {
			next, err := cur.ApplyRowEdits(synthetic.DriftLower(rng, cur, nil, 8, 0.3))
			if err != nil {
				t.Fatal(err)
			}
			cur = next
			deps := wavefront.FromLower(cur)
			what := fmt.Sprintf("%s step %d", c.name, step)
			if st, err := rt.Patch(depsEdits(t, rt.Deps(), deps)); err != nil || st.Fallback {
				t.Fatalf("%s: Patch = %+v, %v; want a repair", what, st, err)
			}
			cold, err := core.Inspect(deps, cfg, FuseAuto, nil)
			if err != nil {
				t.Fatal(err)
			}
			p := get()
			if cold.Part == nil {
				sameRepaired(t, what+" Patch", rt.Wavefronts(), rt.Schedule(), cold)
				sameRepaired(t, what+" plan cache", p.Wf, p.Sched, cold)
				if !slices.Equal(p.Sched.Idx, rt.Schedule().Idx) {
					t.Fatalf("%s: Patch and the plan cache repaired to different deals", what)
				}
			} else {
				d := rt.Decision()
				sameInspection(t, what+" Patch", ofInspection(cold),
					inspected{rt.Wavefronts(), rt.Schedule(), rt.Config().Executor, d != nil && d.Fused, d})
				sameInspection(t, what+" plan cache", ofInspection(cold), ofPlan(p))
				if !slices.Equal(part, cold.Part.RowPtr) {
					moved++
				}
				part = cold.Part.RowPtr
			}
			p.Close()
		}
		if st := pc.DeltaStats(); st.Repairs != 3 || st.Fallbacks != 0 {
			t.Fatalf("%s: delta stats %+v, want every step repaired", c.name, st)
		}
		if c.kind < 0 && moved == 0 {
			t.Fatalf("%s: the drift never moved a supernode boundary", c.name)
		}
		rt.Close()
		pc.Close()
	}
}

// TestConcurrentRepairsShareAncestor: near misses of several drifts of
// one resident structure build concurrently, each repairing from the same
// ancestor inspection, whose repair state the first of them builds (run
// under -race).
func TestConcurrentRepairsShareAncestor(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	base := driftTestFactor(rng, 500, 3)
	opts := []Option{WithProcs(2), WithKind(executor.Pooled)}
	pc := NewPlanCache(0)
	defer pc.Close()
	p, err := pc.Get(base, true, opts...)
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	drifts := make([]*sparse.CSR, 4)
	for i := range drifts {
		if drifts[i], err = base.ApplyRowEdits(synthetic.DriftLower(rng, base, nil, 4, 0.3)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, l := range drifts {
		wg.Add(1)
		go func(l *sparse.CSR) {
			defer wg.Done()
			p, err := pc.Get(l, true, opts...)
			if err != nil {
				t.Error(err)
				return
			}
			defer p.Close()
			if want, err := wavefront.Compute(wavefront.FromLower(l)); err != nil || !slices.Equal(p.Wf, want) {
				t.Errorf("repaired levels differ from a cold inspection (%v)", err)
			}
		}(l)
	}
	wg.Wait()
	if st := pc.DeltaStats(); st.Repairs != uint64(len(drifts)) {
		t.Fatalf("delta stats %+v, want %d repairs", st, len(drifts))
	}
}
