package wavefront

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"doconsider/internal/sparse"
	"doconsider/internal/stencil"
)

// randomBackwardDeps builds a random DAG whose edges all point backward.
func randomBackwardDeps(rng *rand.Rand, n, maxDeg int) *Deps {
	adj := make([][]int32, n)
	for i := 1; i < n; i++ {
		deg := rng.Intn(maxDeg + 1)
		seen := map[int32]bool{}
		for d := 0; d < deg; d++ {
			t := int32(rng.Intn(i))
			if !seen[t] {
				seen[t] = true
				adj[i] = append(adj[i], t)
			}
		}
	}
	return FromAdjacency(adj)
}

func TestComputeChain(t *testing.T) {
	// 0 <- 1 <- 2 <- 3: wavefronts 0,1,2,3.
	d := FromAdjacency([][]int32{{}, {0}, {1}, {2}})
	wf, err := Compute(d)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 1, 2, 3}
	if !reflect.DeepEqual(wf, want) {
		t.Errorf("wf = %v, want %v", wf, want)
	}
	if NumWavefronts(wf) != 4 {
		t.Errorf("NumWavefronts = %d", NumWavefronts(wf))
	}
}

func TestComputeDiamond(t *testing.T) {
	// 1,2 depend on 0; 3 depends on 1 and 2.
	d := FromAdjacency([][]int32{{}, {0}, {0}, {1, 2}})
	wf, err := Compute(d)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 1, 1, 2}
	if !reflect.DeepEqual(wf, want) {
		t.Errorf("wf = %v, want %v", wf, want)
	}
	if got := Histogram(wf); !reflect.DeepEqual(got, []int{1, 2, 1}) {
		t.Errorf("Histogram = %v", got)
	}
}

func TestComputeRejectsForwardDeps(t *testing.T) {
	d := FromAdjacency([][]int32{{1}, {}})
	if _, err := Compute(d); err == nil {
		t.Error("Compute accepted forward dependence")
	}
}

func TestComputeDAGMatchesSequentialOnBackwardDeps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomBackwardDeps(rng, 120, 3)
		seq, err1 := Compute(d)
		dag, err2 := ComputeDAG(d)
		if err1 != nil || err2 != nil {
			return false
		}
		return reflect.DeepEqual(seq, dag)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestComputeDAGForwardEdges(t *testing.T) {
	// 0 depends on 3 (a forward edge): still a DAG.
	d := FromAdjacency([][]int32{{3}, {}, {1}, {}})
	wf, err := ComputeDAG(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(wf, d); err != nil {
		t.Error(err)
	}
}

func TestComputeDAGDetectsCycle(t *testing.T) {
	d := FromAdjacency([][]int32{{1}, {0}})
	if _, err := ComputeDAG(d); err == nil {
		t.Error("ComputeDAG accepted a 2-cycle")
	}
	d = FromAdjacency([][]int32{{2}, {0}, {1}})
	if _, err := ComputeDAG(d); err == nil {
		t.Error("ComputeDAG accepted a 3-cycle")
	}
}

func TestComputeDAGRejectsOutOfRange(t *testing.T) {
	d := &Deps{N: 2, Ptr: []int32{0, 1, 1}, Idx: []int32{5}}
	if _, err := ComputeDAG(d); err == nil {
		t.Error("ComputeDAG accepted out-of-range edge")
	}
}

func TestValidateProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomBackwardDeps(rng, 200, 5)
		wf, err := Compute(d)
		if err != nil {
			return false
		}
		return Validate(wf, d) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesBadAssignment(t *testing.T) {
	d := FromAdjacency([][]int32{{}, {0}})
	if err := Validate([]int32{0, 0}, d); err == nil {
		t.Error("Validate accepted equal wavefronts across a dependence")
	}
	if err := Validate([]int32{0}, d); err == nil {
		t.Error("Validate accepted wrong length")
	}
}

func TestFromLowerMeshWavefronts(t *testing.T) {
	// On a naturally ordered 5-point m×n mesh, the strictly lower triangle
	// couples each point to its west and south neighbours; wavefronts are
	// anti-diagonals: wf(i,j) = i+j, giving m+n-1 wavefronts (paper Fig. 9).
	m, n := 5, 7
	a := stencil.Laplace2D(m, n)
	d := FromLower(a)
	wf, err := Compute(d)
	if err != nil {
		t.Fatal(err)
	}
	g := stencil.Grid2D{NX: m, NY: n}
	for k := 0; k < g.N(); k++ {
		i, j := g.Coords(k)
		if wf[k] != int32(i+j) {
			t.Fatalf("wf[%d] = %d, want %d", k, wf[k], i+j)
		}
	}
	if NumWavefronts(wf) != m+n-1 {
		t.Errorf("wavefronts = %d, want %d", NumWavefronts(wf), m+n-1)
	}
}

func TestFromUpperReflection(t *testing.T) {
	// Upper bidiagonal: row i depends on i+1.
	n := 5
	ts := []sparse.Triplet{}
	for i := 0; i < n; i++ {
		ts = append(ts, sparse.Triplet{Row: i, Col: i, Val: 1})
		if i+1 < n {
			ts = append(ts, sparse.Triplet{Row: i, Col: i + 1, Val: -1})
		}
	}
	u := sparse.MustAssemble(n, n, ts)
	d := FromUpper(u)
	if err := d.CheckBackward(); err != nil {
		t.Fatal(err)
	}
	wf, err := Compute(d)
	if err != nil {
		t.Fatal(err)
	}
	// Iteration k handles row n-1-k; the chain gives wf[k] = k.
	for k := 0; k < n; k++ {
		if wf[k] != int32(k) {
			t.Errorf("wf[%d] = %d, want %d", k, wf[k], k)
		}
		if ReflectIndex(n, k) != n-1-k {
			t.Errorf("ReflectIndex(%d,%d) = %d", n, k, ReflectIndex(n, k))
		}
	}
}

func TestFromIndirection(t *testing.T) {
	// ia = [0 0 5 1 3]: iteration 1 depends on 0, 3 on 1, 4 on 3;
	// iterations 0 (self) and 2 (forward) have no dependences.
	ia := []int32{0, 0, 5, 1, 3}
	d := FromIndirection(ia)
	if d.Count(0) != 0 || d.Count(2) != 0 {
		t.Error("self/forward references should impose no dependence")
	}
	if d.Count(1) != 1 || d.On(1)[0] != 0 {
		t.Error("iteration 1 should depend on 0")
	}
	wf, err := Compute(d)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 1, 0, 2, 3}
	if !reflect.DeepEqual(wf, want) {
		t.Errorf("wf = %v, want %v", wf, want)
	}
}

func TestReverse(t *testing.T) {
	d := FromAdjacency([][]int32{{}, {0}, {0, 1}})
	r := d.Reverse()
	if r.Count(0) != 2 || r.Count(1) != 1 || r.Count(2) != 0 {
		t.Errorf("reverse counts wrong: %v %v %v", r.On(0), r.On(1), r.On(2))
	}
	// Reversing twice restores edge multiset.
	rr := r.Reverse()
	if rr.Edges() != d.Edges() {
		t.Error("double reverse changed edge count")
	}
}

func TestCriticalPathWork(t *testing.T) {
	d := FromAdjacency([][]int32{{}, {0}, {1}, {}})
	cost := []float64{1, 2, 3, 10}
	got, err := CriticalPathWork(d, cost)
	if err != nil {
		t.Fatal(err)
	}
	if got != 10 { // max(1+2+3, 10)
		t.Errorf("critical path = %v, want 10", got)
	}
}

func TestHistogramSumsToN(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomBackwardDeps(rng, 150, 4)
		wf, err := Compute(d)
		if err != nil {
			return false
		}
		sum := 0
		for _, c := range Histogram(wf) {
			sum += c
		}
		return sum == 150
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
