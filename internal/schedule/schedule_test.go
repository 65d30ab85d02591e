package schedule

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"doconsider/internal/stencil"
	"doconsider/internal/supernode"
	"doconsider/internal/wavefront"
)

func meshWavefronts(m, n int) []int32 {
	a := stencil.Laplace2D(m, n)
	d := wavefront.FromLower(a)
	wf, err := wavefront.Compute(d)
	if err != nil {
		panic(err)
	}
	return wf
}

func randomWavefronts(rng *rand.Rand, n, maxWf int) []int32 {
	wf := make([]int32, n)
	// Ensure wavefront numbers are achievable: nondecreasing then shuffled
	// is unnecessary; any assignment is a valid "wavefront vector" for
	// scheduling purposes as long as wavefront 0..max are all present.
	for i := range wf {
		wf[i] = int32(rng.Intn(maxWf))
	}
	wf[0] = 0
	for k := 0; k < maxWf; k++ {
		wf[rng.Intn(n)] = int32(k)
	}
	return wf
}

func TestGlobalWrappedDealing(t *testing.T) {
	// Paper Figures 9-10: 5×7 mesh, sorted list dealt wrapped over p procs.
	wf := meshWavefronts(5, 7)
	s := Global(wf, 4)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.NumPhases != 11 {
		t.Errorf("phases = %d, want 11", s.NumPhases)
	}
	// Wrapped dealing: processor index counts differ by at most 1.
	st := ComputeStats(s)
	if st.MaxIndices-st.MinIndices > 1 {
		t.Errorf("wrapped dealing imbalance: max=%d min=%d", st.MaxIndices, st.MinIndices)
	}
	// Within each phase counts differ by at most 1.
	if st.PhaseImbalance > 1 {
		t.Errorf("phase imbalance %v > 1", st.PhaseImbalance)
	}
}

func TestGlobalSortedListOrder(t *testing.T) {
	// With one processor the global schedule is exactly the wavefront-sorted
	// index list; on the 5×7 mesh that is the anti-diagonal traversal of
	// paper Figure 9.
	wf := meshWavefronts(5, 7)
	s := Global(wf, 1)
	g := stencil.Grid2D{NX: 5, NY: 7}
	// Expected: for each wavefront w, points with i+j == w in increasing
	// index order.
	var want []int32
	for w := 0; w <= 10; w++ {
		for k := 0; k < g.N(); k++ {
			i, j := g.Coords(k)
			if i+j == w {
				want = append(want, int32(k))
			}
		}
	}
	if !reflect.DeepEqual(s.Proc(0), want) {
		t.Errorf("sorted list mismatch:\n got %v\nwant %v", s.Proc(0), want)
	}
}

func TestLocalPreservesPartition(t *testing.T) {
	wf := meshWavefronts(6, 6)
	s := Local(wf, 3, Striped)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		for _, idx := range s.Proc(p) {
			if int(idx)%3 != p {
				t.Fatalf("striped local schedule moved index %d to proc %d", idx, p)
			}
		}
	}
	sb := Local(wf, 3, Blocked)
	if err := sb.Validate(); err != nil {
		t.Fatal(err)
	}
	n := len(wf)
	for p := 0; p < 3; p++ {
		lo, hi := n*p/3, n*(p+1)/3
		for _, idx := range sb.Proc(p) {
			if int(idx) < lo || int(idx) >= hi {
				t.Fatalf("blocked local schedule moved index %d to proc %d", idx, p)
			}
		}
	}
}

func TestLocalStableWithinWavefront(t *testing.T) {
	wf := []int32{0, 1, 0, 1, 0, 1}
	s := Local(wf, 1, Striped)
	want := []int32{0, 2, 4, 1, 3, 5}
	if !reflect.DeepEqual(s.Proc(0), want) {
		t.Errorf("local order = %v, want %v", s.Proc(0), want)
	}
}

func TestNaturalKeepsOrder(t *testing.T) {
	s := Natural(10, 3, Striped)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.NumPhases != 1 {
		t.Errorf("natural phases = %d, want 1", s.NumPhases)
	}
	want := []int32{0, 3, 6, 9}
	if !reflect.DeepEqual(s.Proc(0), want) {
		t.Errorf("proc 0 = %v, want %v", s.Proc(0), want)
	}
	sb := Natural(10, 3, Blocked)
	if got := sb.Proc(0); !reflect.DeepEqual(got, []int32{0, 1, 2}) {
		t.Errorf("blocked proc 0 = %v", got)
	}
}

func TestScheduleValidatePermutationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		wf := randomWavefronts(rng, n, 1+rng.Intn(10))
		p := 1 + rng.Intn(9)
		for _, s := range []*Schedule{
			Global(wf, p),
			Local(wf, p, Striped),
			Local(wf, p, Blocked),
			Natural(n, p, Striped),
		} {
			if err := s.Validate(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFlatOrderRespectsPhases(t *testing.T) {
	wf := meshWavefronts(4, 4)
	s := Global(wf, 3)
	flat := s.FlatOrder()
	if len(flat) != 16 {
		t.Fatalf("flat order length %d", len(flat))
	}
	for k := 1; k < len(flat); k++ {
		if wf[flat[k-1]] > wf[flat[k]] {
			t.Fatalf("flat order decreases wavefront at %d", k)
		}
	}
}

func TestComputeStatsSeqPhases(t *testing.T) {
	// Wavefronts striped so that every index of each phase lands on one
	// processor: wf[i] = i means phase i has exactly one index.
	n := 12
	wf := make([]int32, n)
	for i := range wf {
		wf[i] = int32(i)
	}
	s := Local(wf, 4, Striped)
	st := ComputeStats(s)
	if st.SeqPhases != n {
		t.Errorf("SeqPhases = %d, want %d", st.SeqPhases, n)
	}
}

func TestPartitionString(t *testing.T) {
	if Striped.String() != "striped" || Blocked.String() != "blocked" {
		t.Error("partition names wrong")
	}
	if Partition(9).String() == "" {
		t.Error("unknown partition should still format")
	}
}

func TestMoreProcsThanIndices(t *testing.T) {
	wf := []int32{0, 1}
	s := Global(wf, 8)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for p := 0; p < s.P; p++ {
		total += len(s.Proc(p))
	}
	if total != 2 {
		t.Errorf("scheduled %d indices, want 2", total)
	}
}

// compressedWavefronts builds the unit-level wavefront vector of a
// supernode-compressed mesh factor: far fewer units than rows, with
// levels whose widths collapse unevenly under fusion.
func compressedWavefronts(m, n, maxWidth int) []int32 {
	a := stencil.Laplace2D(m, n)
	deps := wavefront.FromLower(a.LowerWithDiag())
	part := supernode.Detect(deps, supernode.Config{MaxWidth: maxWidth})
	unit := part.Compress(deps)
	wf, err := wavefront.Compute(unit)
	if err != nil {
		panic(err)
	}
	return wf
}

// TestFromOrderCompressedLevels pins FromOrder/Order round trips on the
// level shapes supernodal compression produces: a single unit spanning a
// whole level, alternating singleton/fused runs, and far fewer units
// than the row count that fed them.
func TestFromOrderCompressedLevels(t *testing.T) {
	cases := []struct {
		name string
		wf   []int32
	}{
		{"mesh-compressed", compressedWavefronts(9, 6, 8)},
		{"mesh-tight-cap", compressedWavefronts(12, 12, 2)},
		// One unit alone on its level (a supernode that swallowed the
		// level), between wider levels.
		{"singleton-level", []int32{0, 0, 0, 1, 2, 2}},
		// Alternating singleton/fused-run levels of width 1 and 2.
		{"alternating", []int32{0, 1, 1, 2, 3, 3, 4}},
		// A pure chain after maximal fusion: every level width 1.
		{"chain", []int32{0, 1, 2, 3}},
		// Degenerate orders.
		{"single-unit", []int32{0}},
		{"empty", nil},
	}
	for _, tc := range cases {
		for _, p := range []int{1, 2, 4, 7} {
			s := Global(tc.wf, p)
			if err := s.Validate(); err != nil {
				t.Fatalf("%s/p=%d: %v", tc.name, p, err)
			}
			order := s.Order()
			// Order is wavefront-sorted and FromOrder(Order) reproduces
			// the schedule exactly.
			for k := 1; k < len(order); k++ {
				if tc.wf[order[k-1]] > tc.wf[order[k]] {
					t.Fatalf("%s/p=%d: order positions %d,%d descend levels", tc.name, p, k-1, k)
				}
			}
			s2 := FromOrder(tc.wf, order, p)
			if err := s2.Validate(); err != nil {
				t.Fatalf("%s/p=%d: round trip: %v", tc.name, p, err)
			}
			if !reflect.DeepEqual(s.Idx, s2.Idx) || !reflect.DeepEqual(s.PhasePtr, s2.PhasePtr) || s.NumPhases != s2.NumPhases {
				t.Fatalf("%s/p=%d: FromOrder(Order()) does not reproduce the schedule", tc.name, p)
			}
		}
	}
}

// TestFromOrderEmptyInteriorLevel pins the empty-phase behavior an
// incremental (repaired or re-spliced) wavefront vector can exhibit: a
// level number with no units still yields a structurally valid schedule
// with an empty phase rather than a collapsed or misassigned one.
func TestFromOrderEmptyInteriorLevel(t *testing.T) {
	wf := []int32{0, 0, 2, 2, 2} // level 1 empty after compression
	for _, p := range []int{1, 3} {
		s := Global(wf, p)
		if err := s.Validate(); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if s.NumPhases != 3 {
			t.Fatalf("p=%d: phases = %d, want 3 (empty interior level kept)", p, s.NumPhases)
		}
		order := s.Order()
		s2 := FromOrder(wf, order, p)
		if !reflect.DeepEqual(s.Idx, s2.Idx) || !reflect.DeepEqual(s.PhasePtr, s2.PhasePtr) {
			t.Fatalf("p=%d: round trip differs with empty interior level", p)
		}
	}
}
