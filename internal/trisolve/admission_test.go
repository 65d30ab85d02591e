package trisolve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"doconsider/internal/executor"
	"doconsider/internal/plancache"
	"doconsider/internal/sparse"
	"doconsider/internal/stencil"
	"doconsider/internal/synthetic"
)

// sight is the first sight of l's structure under opts: the lookup must
// come back uninspected — the sequential loop, nothing leased — so that
// the caller's next Get of the structure inspects (or repairs).
func sight(tb testing.TB, pc *PlanCache, l *sparse.CSR, lower bool, opts ...Option) {
	tb.Helper()
	p, err := pc.Get(l, lower, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	if p.Wf != nil || p.Kind != executor.Sequential {
		tb.Fatalf("first sight was inspected (kind %v)", p.Kind)
	}
	if err := p.Close(); err != nil {
		tb.Fatal(err)
	}
}

// TestPlanCacheSecondSight drives the admission rule through lookup
// sequences: each step names a structure and whether its lookup must
// inspect, and the cache's miss and hit counters are checked at the end.
func TestPlanCacheSecondSight(t *testing.T) {
	tris := []*sparse.CSR{
		stencil.Laplace2D(9, 9).LowerWithDiag(),
		stencil.Laplace2D(10, 10).LowerWithDiag(),
		stencil.Laplace2D(11, 11).LowerWithDiag(),
	}
	const a, b, c = 0, 1, 2
	type step struct {
		tri     int
		pinned  bool // WithKind(executor.Pooled)
		inspect bool
	}
	for _, tc := range []struct {
		name         string
		capacity     int
		steps        []step
		misses, hits uint64
	}{
		{"second sight inspects, third hits", 4,
			[]step{{a, false, false}, {a, false, true}, {a, false, true}}, 2, 1},
		{"evicted key starts over", 1,
			[]step{{a, false, false}, {a, false, true}, {b, false, false}, {b, false, true},
				{a, false, false}, {a, false, true}}, 6, 0},
		{"pushed out of the first sights starts over", 2,
			[]step{{a, false, false}, {b, false, false}, {c, false, false},
				{a, false, false}, {c, false, true}, {a, false, true}}, 6, 0},
		{"unbounded cache remembers every first sight", 0,
			[]step{{a, false, false}, {b, false, false}, {c, false, false},
				{a, false, true}, {b, false, true}, {c, false, true}}, 6, 0},
		{"pinned kinds always inspect", 4,
			[]step{{a, true, true}, {b, true, true}, {b, false, false}, {b, false, true}}, 4, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pc := NewPlanCache(tc.capacity)
			defer pc.Close()
			deferred := 0
			for i, st := range tc.steps {
				opts := []Option{WithProcs(2)}
				if st.pinned {
					opts = append(opts, WithKind(executor.Pooled))
				}
				p, err := pc.Get(tris[st.tri], true, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if got := p.Wf != nil; got != st.inspect {
					t.Fatalf("step %d: inspected = %v, want %v", i, got, st.inspect)
				}
				if !st.inspect {
					deferred++
					if p.Kind != executor.Sequential || p.Deps != nil || p.Decision != nil || p.Phases() != 0 {
						t.Fatalf("step %d: first sight = kind %v, deps %v, decision %v", i, p.Kind, p.Deps, p.Decision)
					}
				}
				if err := p.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if st := pc.Stats(); st.Misses != tc.misses || st.Hits != tc.hits {
				t.Fatalf("stats %+v, want %d misses and %d hits", st, tc.misses, tc.hits)
			}
			if got := pc.DecisionCounts()["sequential"]; got != uint64(deferred) {
				t.Fatalf("DecisionCounts[sequential] = %d, want the %d first sights", got, deferred)
			}
			n := 0
			for _, rec := range pc.Decisions() {
				if rec.Deferred {
					n++
					if rec.Strategy != "sequential" || rec.Procs != 1 {
						t.Fatalf("deferred record %+v, want the sequential loop on one processor", rec)
					}
				}
			}
			if n != deferred {
				t.Fatalf("decision log has %d deferred records, want %d", n, deferred)
			}
		})
	}
}

// levelRecorder is a LevelClock that counts the charges to each level.
type levelRecorder struct {
	mu     sync.Mutex
	levels map[int32]int
}

func (r *levelRecorder) Add(level int32, _ int64) {
	r.mu.Lock()
	r.levels[level]++
	r.mu.Unlock()
}

// TestFirstSightBitIdentical: an uninspected plan's every solve shape —
// single, batch, group of structural peers, timed — is the sequential
// loop, lower and upper, bit for bit; a timed pass charges every row to
// level 0.
func TestFirstSightBitIdentical(t *testing.T) {
	ctx := context.Background()
	for _, lower := range []bool{true, false} {
		rng := rand.New(rand.NewSource(5))
		tri := randomTriangular(rng, 300, 4, lower)
		pc := NewPlanCache(4)
		p, err := pc.Get(tri, lower, WithProcs(4))
		if err != nil {
			t.Fatal(err)
		}
		if p.Wf != nil {
			t.Fatal("first sight was inspected")
		}
		n := tri.N
		what := fmt.Sprintf("lower=%v", lower)

		b := randomRHS(rng, n, 1)[0]
		x := make([]float64, n)
		if m := p.Solve(x, b); m.Executed != int64(n) || m.P != 1 {
			t.Fatalf("%s: Solve metrics %+v, want %d rows on one processor", what, m, n)
		}
		assertBitIdentical(t, x, refSolve(t, tri, lower, b), what+" Solve")

		xs, bs := randomRHS(rng, n, 3), randomRHS(rng, n, 3)
		if _, err := p.SolveBatch(xs, bs); err != nil {
			t.Fatal(err)
		}
		for j := range xs {
			assertBitIdentical(t, xs[j], refSolve(t, tri, lower, bs[j]), fmt.Sprintf("%s batch rhs %d", what, j))
		}

		group, want := groupOf(t, p, rng, 3, 2)
		if _, err := p.SolveGroupCtx(ctx, group); err != nil {
			t.Fatal(err)
		}
		for g := range group {
			for j := range group[g].Xs {
				assertBitIdentical(t, group[g].Xs[j], want[g][j], fmt.Sprintf("%s group member %d rhs %d", what, g, j))
			}
		}

		clock := &levelRecorder{levels: map[int32]int{}}
		xs, bs = randomRHS(rng, n, 2), randomRHS(rng, n, 2)
		if _, err := p.Bind().SolveTimed(ctx, xs, bs, clock); err != nil {
			t.Fatal(err)
		}
		for j := range xs {
			assertBitIdentical(t, xs[j], refSolve(t, tri, lower, bs[j]), fmt.Sprintf("%s timed rhs %d", what, j))
		}
		if len(clock.levels) != 1 || clock.levels[0] != n {
			t.Fatalf("%s: timed first-sight pass charged %v, want all %d rows to level 0", what, clock.levels, n)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if err := pc.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPlanCacheClosedFirstSight: a closed cache refuses every lookup,
// a never-seen adaptive one included.
func TestPlanCacheClosedFirstSight(t *testing.T) {
	pc := NewPlanCache(4)
	if err := pc.Close(); err != nil {
		t.Fatal(err)
	}
	l := stencil.Laplace2D(6, 6).LowerWithDiag()
	if _, err := pc.Get(l, true, WithProcs(2)); !errors.Is(err, plancache.ErrClosed) {
		t.Fatalf("Get on a closed cache returned %v, want plancache.ErrClosed", err)
	}
}

// TestInvDiagonalDifferential checks the kernel's per-row reciprocal
// diagonal (invDiag) against At's binary search on random factors whose
// rows store the diagonal last, first, in the middle or not at all —
// empty rows among them — and checks every one of those shapes occurred.
func TestInvDiagonalDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var last, first, middle, absent int
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		var ts []sparse.Triplet
		for i := 0; i < n; i++ {
			shape := rng.Intn(5) // 0 empty, 1 lower, 2 upper, 3 both sides, 4 diagonal only
			if shape == 0 {
				continue
			}
			if shape != 4 {
				for k := rng.Intn(4); k >= 0; k-- {
					j := rng.Intn(n)
					if (shape == 1 && j > i) || (shape == 2 && j < i) {
						j = i
					}
					if j != i {
						ts = append(ts, sparse.Triplet{Row: i, Col: j, Val: rng.NormFloat64()})
					}
				}
			}
			if rng.Intn(4) != 0 { // a quarter of the rows lack their diagonal
				ts = append(ts, sparse.Triplet{Row: i, Col: i, Val: 0.5 + rng.Float64()})
			}
		}
		a, err := sparse.Assemble(n, n, ts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			cols, vals := a.Row(i)
			switch q := slices.Index(cols, int32(i)); {
			case q < 0:
				absent++
			case q == len(cols)-1:
				last++
			case q == 0:
				first++
			default:
				middle++
			}
			want := 0.0
			if d := a.At(i, i); d != 0 {
				want = 1 / d
			}
			if got := invDiag(cols, vals, int32(i)); got != want {
				t.Fatalf("trial %d row %d: inv = %v, want %v", trial, i, got, want)
			}
		}
	}
	if last == 0 || first == 0 || middle == 0 || absent == 0 {
		t.Fatalf("row shapes: diagonal last %d, first %d, middle %d, absent %d; want each > 0",
			last, first, middle, absent)
	}
}

// BenchmarkPlanCacheMiss prices the three kinds of plan-cache miss on
// one structure, each seen once before the timed lookup: first-sight is
// the uninspected answer (a lookup of a structure pushed out of the
// cache's reach), inspect the second sight of a cold structure, repair
// the second sight of a hinted drift of a resident one. These are the
// per-layer inspect and repair costs an end-to-end run that never
// inspects no longer shows.
func BenchmarkPlanCacheMiss(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	base := driftTestFactor(rng, 4000, 3)
	edits := synthetic.DriftLower(rng, base, nil, 8, 0.3)
	drifted, err := base.ApplyRowEdits(edits)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]int32, 0, len(edits))
	for _, e := range edits {
		rows = append(rows, e.Row)
	}
	hint := WithDriftHint(base.StructureFingerprint(), rows)
	get := func(pc *PlanCache, l *sparse.CSR, opts ...Option) *BuildStats {
		var bs BuildStats
		p, err := pc.Get(l, true, append(opts, WithProcs(2), WithBuildStats(&bs))...)
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Close(); err != nil {
			b.Fatal(err)
		}
		return &bs
	}
	b.Run("first-sight", func(b *testing.B) {
		// Two structures through a cache of one: each lookup's structure
		// was pushed out of the reach by the other's first sight.
		pc := NewPlanCache(1)
		defer pc.Close()
		tris := []*sparse.CSR{base, drifted}
		sight(b, pc, base, true, WithProcs(2))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sight(b, pc, tris[(i+1)%2], true, WithProcs(2))
		}
	})
	b.Run("inspect", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			pc := NewPlanCache(0)
			sight(b, pc, base, true, WithProcs(2))
			b.StartTimer()
			if bs := get(pc, base); bs.InspectNs == 0 {
				b.Fatal("second sight did not inspect")
			}
			b.StopTimer()
			pc.Close()
			b.StartTimer()
		}
	})
	b.Run("repair", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			pc := NewPlanCache(0)
			sight(b, pc, base, true, WithProcs(2))
			get(pc, base)
			sight(b, pc, drifted, true, WithProcs(2), hint)
			b.StartTimer()
			if bs := get(pc, drifted, hint); !bs.Repaired {
				b.Fatal("second sight of a hinted drift did not repair")
			}
			b.StopTimer()
			pc.Close()
			b.StartTimer()
		}
	})
}
