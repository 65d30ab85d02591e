package delta

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"doconsider/internal/executor"
	"doconsider/internal/schedule"
	"doconsider/internal/sparse"
	"doconsider/internal/supernode"
	"doconsider/internal/wavefront"
)

// FuzzRepair pins the repair ≡ full-re-inspection equivalence the delta
// subsystem promises: over random triangular factors (both directions)
// and random structural edit sets,
//
//   - the repaired wavefront assignment is identical to what
//     wavefront.Compute returns for the edited structure,
//   - the repaired schedule is a valid wrapped-deal schedule, and
//   - triangular solves executed under the repaired schedule are
//     bit-identical to solves under a from-scratch schedule, for a
//     single right-hand side and for a batch,
//
// including along drift chains (repairing an already-repaired state) and
// under cone bounds (which must abort with ErrConeTooLarge, never return
// a wrong plan).
func FuzzRepair(f *testing.F) {
	f.Add(int64(1), uint8(24), uint8(3), uint8(3), true)
	f.Add(int64(2), uint8(40), uint8(2), uint8(6), false)
	f.Add(int64(1989), uint8(90), uint8(4), uint8(1), true)
	f.Add(int64(7), uint8(6), uint8(1), uint8(9), false)
	f.Add(int64(42), uint8(255), uint8(5), uint8(12), true)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, degRaw, editRaw uint8, lower bool) {
		n := int(nRaw)%96 + 2
		deg := int(degRaw)%5 + 1
		editCount := int(editRaw)%10 + 1
		rng := rand.New(rand.NewSource(seed))

		factor := randomFactor(rng, n, deg, lower)
		deps := factorDepsFull(factor, lower)
		wf, err := wavefront.Compute(deps)
		if err != nil {
			t.Fatal(err)
		}
		st := NewState(deps, wf, schedule.Global(wf, 4))
		part := supernode.Detect(deps, supernode.Config{})

		// Drift chain: repair twice from successive states.
		for step := 0; step < 2; step++ {
			edited := toggleFactor(rng, factor, editCount, lower)
			changed, ok := DiffFactor(st.Deps, edited, lower, 0)
			if !ok {
				t.Fatal("unbounded DiffFactor reported not ok")
			}
			newDeps := FactorDeps(st.Deps, edited, lower, changed)

			next, stats, err := st.Repair(newDeps, changed, Options{})
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}

			// Level identity against the paper's Figure 7 sweep.
			ref, err := wavefront.Compute(newDeps)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref {
				if next.Wf[i] != ref[i] {
					t.Fatalf("step %d: wf[%d] = %d, want %d", step, i, next.Wf[i], ref[i])
				}
			}
			if err := wavefront.Validate(next.Wf, newDeps); err != nil {
				t.Fatal(err)
			}
			checkSchedule(t, next.Sched, next.Wf)

			// Supernodal invariant: re-splicing the previous partition
			// around the edited rows lands exactly on fresh detection over
			// the repaired structure — the identity trisolve's plan cache
			// relies on to keep drift chains fused.
			part = supernode.Resplice(part, newDeps, changed)
			freshPart := supernode.Detect(newDeps, supernode.Config{})
			if len(part.RowPtr) != len(freshPart.RowPtr) {
				t.Fatalf("step %d: respliced partition has %d nodes, fresh detection %d",
					step, part.NumNodes(), freshPart.NumNodes())
			}
			for u := range freshPart.RowPtr {
				if part.RowPtr[u] != freshPart.RowPtr[u] {
					t.Fatalf("step %d: RowPtr[%d] = %d, want %d", step, u, part.RowPtr[u], freshPart.RowPtr[u])
				}
			}
			for u := range freshPart.Uniform {
				if part.Uniform[u] != freshPart.Uniform[u] {
					t.Fatalf("step %d: Uniform[%d] = %v, want %v", step, u, part.Uniform[u], freshPart.Uniform[u])
				}
			}
			unitDeps := part.Compress(newDeps)
			unitWf, err := wavefront.Compute(unitDeps)
			if err != nil {
				t.Fatalf("step %d: compressed levels: %v", step, err)
			}
			unitSched := schedule.Global(unitWf, 4)

			// Bit-identical solves: one RHS and a batch of three — the
			// repaired schedule and the compressed (supernodal) schedule
			// against a from-scratch row schedule.
			fresh := schedule.Global(ref, 4)
			for _, k := range []int{1, 3} {
				bs := make([][]float64, k)
				for j := range bs {
					bs[j] = make([]float64, n)
					for i := range bs[j] {
						bs[j][i] = rng.NormFloat64()
					}
				}
				want := solveAll(t, fresh, newDeps, edited, lower, bs)
				got := solveAll(t, next.Sched, newDeps, edited, lower, bs)
				fusedGot := solveAllFused(t, unitSched, unitDeps, part, edited, lower, bs)
				for j := range want {
					for i := range want[j] {
						if want[j][i] != got[j][i] {
							t.Fatalf("step %d k=%d: x[%d][%d] = %v, want %v (not bit-identical)",
								step, k, j, i, got[j][i], want[j][i])
						}
						if want[j][i] != fusedGot[j][i] {
							t.Fatalf("step %d k=%d: fused x[%d][%d] = %v, want %v (not bit-identical)",
								step, k, j, i, fusedGot[j][i], want[j][i])
						}
					}
				}
			}

			// A cone bound below the observed cone must abort, never
			// mis-repair.
			if stats.Cone > 1 {
				if _, _, err := st.Repair(newDeps, changed, Options{MaxCone: stats.Cone - 1}); !errors.Is(err, ErrConeTooLarge) {
					t.Fatalf("step %d: cone bound %d: err = %v, want ErrConeTooLarge", step, stats.Cone-1, err)
				}
			}

			factor, st = edited, next
		}
	})
}

// solveAll runs a sequential triangular solve for each right-hand side
// under the given schedule, using the same per-row arithmetic as
// trisolve's executor bodies.
func solveAll(t *testing.T, s *schedule.Schedule, deps *wavefront.Deps, factor *sparse.CSR, lower bool, bs [][]float64) [][]float64 {
	t.Helper()
	n := factor.N
	inv := make([]float64, n)
	for i := 0; i < n; i++ {
		d := factor.At(i, i)
		if d == 0 {
			t.Fatal("zero diagonal in generated factor")
		}
		inv[i] = 1 / d
	}
	seq := executor.New(executor.Sequential)
	xs := make([][]float64, len(bs))
	for j, b := range bs {
		x := make([]float64, n)
		var body executor.Body
		if lower {
			body = func(i int32) {
				cols, vals := factor.Row(int(i))
				sum := b[i]
				for k, c := range cols {
					if c != i {
						sum -= vals[k] * x[c]
					}
				}
				x[i] = sum * inv[i]
			}
		} else {
			body = func(k int32) {
				i := n - 1 - int(k)
				cols, vals := factor.Row(i)
				sum := b[i]
				for q, c := range cols {
					if int(c) != i {
						sum -= vals[q] * x[c]
					}
				}
				x[i] = sum * inv[i]
			}
		}
		if _, err := seq.Run(context.Background(), s, deps, body); err != nil {
			t.Fatal(err)
		}
		xs[j] = x
	}
	return xs
}

// solveAllFused is solveAll over a compressed supernodal schedule: each
// scheduled index is a partition node whose rows run in order with the
// same per-row arithmetic, so results must be bit-identical to the
// row-wise schedules.
func solveAllFused(t *testing.T, s *schedule.Schedule, unitDeps *wavefront.Deps, part *supernode.Partition, factor *sparse.CSR, lower bool, bs [][]float64) [][]float64 {
	t.Helper()
	n := factor.N
	inv := make([]float64, n)
	for i := 0; i < n; i++ {
		d := factor.At(i, i)
		if d == 0 {
			t.Fatal("zero diagonal in generated factor")
		}
		inv[i] = 1 / d
	}
	seq := executor.New(executor.Sequential)
	row := func(x, b []float64, i int) {
		cols, vals := factor.Row(i)
		sum := b[i]
		for k, c := range cols {
			if int(c) != i {
				sum -= vals[k] * x[c]
			}
		}
		x[i] = sum * inv[i]
	}
	xs := make([][]float64, len(bs))
	for j, b := range bs {
		x := make([]float64, n)
		body := func(u int32) {
			lo, hi := part.Rows(int(u))
			for k := lo; k < hi; k++ {
				i := int(k)
				if !lower {
					i = n - 1 - i
				}
				row(x, b, i)
			}
		}
		if _, err := seq.Run(context.Background(), s, unitDeps, body); err != nil {
			t.Fatal(err)
		}
		xs[j] = x
	}
	return xs
}
