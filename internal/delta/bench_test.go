package delta

import (
	"math/rand"
	"os"
	"testing"
	"time"

	"doconsider/internal/planner"
	"doconsider/internal/problems"
	"doconsider/internal/schedule"
	"doconsider/internal/sparse"
	"doconsider/internal/wavefront"
)

// driftedSuiteProblem is one problem-suite factor with a small drift
// applied: about 1% of rows edited (well under the ≤5% the repair path
// targets), the base state warm (reverse adjacency built — the steady
// state of a drift chain).
type driftedSuiteProblem struct {
	name    string
	base    *State
	edited  *sparse.CSR
	changed []int32 // the edited rows, as a drift-aware caller knows them
}

func driftedSuite(tb testing.TB, editFrac float64) []driftedSuiteProblem {
	var out []driftedSuiteProblem
	for _, name := range problems.TriSolveNames() {
		p, err := problems.Get(name)
		if err != nil {
			tb.Fatal(err)
		}
		st := NewState(p.Deps, p.Wf, schedule.Global(p.Wf, 4))
		st.Reverse()
		rng := rand.New(rand.NewSource(1989))
		edits := int(float64(p.L.N)*editFrac) + 1
		edited := localToggleFactor(rng, p.L, p.Wf, edits)
		changed, ok := DiffFactor(p.Deps, edited, true, 0)
		if !ok || len(changed) == 0 {
			tb.Fatalf("%s: drift produced no diff", name)
		}
		out = append(out, driftedSuiteProblem{name: name, base: st, edited: edited, changed: changed})
	}
	return out
}

// BenchmarkRepairVsRebuild compares the ways a near-miss plan lookup can
// obtain inspector output for a drifted factor:
//
//   - rebuild: full cold re-inspection (dependence extraction, wavefront
//     sweep, planner analysis, schedule construction — what a plain
//     cache miss pays);
//   - repair-scan: the delta repair path when only the matrix is known —
//     bounded row diff against the resident ancestor, spliced structure,
//     cone-local releveling;
//   - repair-hinted: the same repair when the caller names the edited
//     rows, as the serving path's base_fp+edits request form does — the
//     diff scan disappears and only the edit footprint is touched.
//
// The repair sub-benchmarks are alloc-gated in ci/bench_baseline.json;
// the ≥5× repair-hinted target is enforced by TestRepairCompetitive.
func BenchmarkRepairVsRebuild(b *testing.B) {
	for _, sp := range driftedSuite(b, 0.01) {
		n, edges := sp.base.Deps.N, sp.base.Deps.Edges()
		b.Run(sp.name+"/rebuild", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				deps := wavefront.FromLower(sp.edited)
				wf, err := wavefront.Compute(deps)
				if err != nil {
					b.Fatal(err)
				}
				planner.Select(planner.Analyze(deps, wf, 4), planner.Default())
				schedule.Global(wf, 4)
			}
		})
		b.Run(sp.name+"/repair-scan", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				changed, ok := DiffFactor(sp.base.Deps, sp.edited, true, n/2)
				if !ok {
					b.Fatal("drift unexpectedly large")
				}
				repairOnce(b, sp.base, sp.edited, changed, n, edges)
			}
		})
		b.Run(sp.name+"/repair-hinted", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				repairOnce(b, sp.base, sp.edited, sp.changed, n, edges)
			}
		})
	}
}

func repairOnce(b *testing.B, base *State, edited *sparse.CSR, changed []int32, n, edges int) {
	newDeps := FactorDeps(base.Deps, edited, true, changed)
	bound := RepairBound(n, edges)
	if len(changed) > bound {
		b.Fatal("a 1% edit exceeds the break-even bound")
	}
	if _, _, err := base.Repair(newDeps, changed, Options{MaxCone: bound}); err != nil {
		b.Fatal(err)
	}
}

// TestRepairCompetitive is the opt-in acceptance harness for the ≥5×
// repair-vs-rebuild target at ≤5% edited rows: run with
// DOCONSIDER_PERF=1 on a quiet machine. It takes best-of timings of the
// same paths BenchmarkRepairVsRebuild times and requires, on every problem of
// the suite, hinted repair (the serving path, edited rows known from the
// wire) to be ≥5× cheaper than a rebuild and the scan path (edited rows
// discovered by diffing) to never be slower.
func TestRepairCompetitive(t *testing.T) {
	if os.Getenv("DOCONSIDER_PERF") == "" {
		t.Skip("perf acceptance harness; set DOCONSIDER_PERF=1 to run")
	}
	const reps = 25
	for _, sp := range driftedSuite(t, 0.01) {
		n, edges := sp.base.Deps.N, sp.base.Deps.Edges()
		rebuild := bestOf(reps, func() {
			deps := wavefront.FromLower(sp.edited)
			wf, _ := wavefront.Compute(deps)
			planner.Select(planner.Analyze(deps, wf, 4), planner.Default())
			schedule.Global(wf, 4)
		})
		repair := func(scan bool) time.Duration {
			return bestOf(reps, func() {
				changed := sp.changed
				if scan {
					changed, _ = DiffFactor(sp.base.Deps, sp.edited, true, 0)
				}
				newDeps := FactorDeps(sp.base.Deps, sp.edited, true, changed)
				if _, _, err := sp.base.Repair(newDeps, changed, Options{MaxCone: RepairBound(n, edges)}); err != nil {
					t.Fatal(err)
				}
			})
		}
		scan, hinted := repair(true), repair(false)
		t.Logf("%s: rebuild %v, repair-scan %v (%.1fx), repair-hinted %v (%.1fx)",
			sp.name, rebuild, scan, float64(rebuild)/float64(scan),
			hinted, float64(rebuild)/float64(hinted))
		if float64(rebuild)/float64(hinted) < 5 {
			t.Errorf("%s: hinted repair only %.1fx over rebuild, want >= 5x",
				sp.name, float64(rebuild)/float64(hinted))
		}
		if scan > rebuild {
			t.Errorf("%s: scan repair slower than rebuild (%v > %v)", sp.name, scan, rebuild)
		}
	}
}

// localToggleFactor applies level-compatible fill drift to count rows:
// each edited row gains a fill entry adjacent to an existing one whose
// wavefront level sits below the row's — the signature of an ILU
// refactorization whose drop tolerance admits a neighbor it previously
// dropped. Such fill cannot raise any level (new dependences point below
// the row's level), so the repair cone stays within the edit footprint;
// level-breaking edits — deleting a critical stencil coupling, fill that
// jumps levels — relevel whole downstream regions and are correctly
// routed to a rebuild by the cone bound (exercised by FuzzRepair and
// TestRepairConeBound, not benchmarked as "repair"). It is the
// test-local twin of synthetic.DriftLower.
func localToggleFactor(rng *rand.Rand, a *sparse.CSR, wf []int32, count int) *sparse.CSR {
	n := a.N
	low := make([][]int32, n) // strictly-lower columns per row, sorted
	for i := 0; i < n; i++ {
		cols, _ := a.Row(i)
		for _, c := range cols {
			if int(c) < i {
				low[i] = append(low[i], c)
			}
		}
	}
	for done, tries := 0, 0; done < count && tries < count*50; tries++ {
		i := rng.Intn(n-1) + 1
		if len(low[i]) == 0 {
			continue
		}
		t := low[i][rng.Intn(len(low[i]))]
		// Insert the nearest absent level-compatible column below the
		// picked entry.
		ins := int32(-1)
		for c := t - 1; c >= 0 && c >= t-16; c-- {
			if wf[c] < wf[i] && !containsInt32(low[i], c) {
				ins = c
				break
			}
		}
		if ins < 0 {
			continue
		}
		low[i] = insertSorted(low[i], ins)
		done++
	}
	var ts []sparse.Triplet
	for i := 0; i < n; i++ {
		cols, vals := a.Row(i)
		for q, c := range cols {
			if int(c) >= i {
				ts = append(ts, sparse.Triplet{Row: i, Col: int(c), Val: vals[q]})
			}
		}
		for _, c := range low[i] {
			ts = append(ts, sparse.Triplet{Row: i, Col: int(c), Val: a.At(i, int(c))})
		}
	}
	out := sparse.MustAssemble(n, n, ts)
	// Freshly inserted entries get a deterministic nonzero value.
	for i := 0; i < n; i++ {
		cols, vals := out.Row(i)
		for q, c := range cols {
			if vals[q] == 0 {
				vals[q] = 0.01 * float64((int(c)+i)%7+1)
			}
		}
	}
	return out
}

func containsInt32(s []int32, t int32) bool {
	for _, v := range s {
		if v == t {
			return true
		}
	}
	return false
}

func insertSorted(s []int32, v int32) []int32 {
	s = append(s, v)
	i := len(s) - 1
	for i > 0 && s[i-1] > s[i] {
		s[i-1], s[i] = s[i], s[i-1]
		i--
	}
	return s
}

// bestOf returns the fastest of reps timed runs — the robust estimator
// of a deterministic path's cost floor on a machine with background
// noise (the same convention cmd/ci's allocs gate uses via minMetric).
func bestOf(reps int, f func()) time.Duration {
	f() // warm caches and the allocator before timing
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}
