package executor

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"

	"doconsider/internal/schedule"
	"doconsider/internal/wavefront"
)

// randomDAG builds random backward dependences over n iterations.
func randomDAG(rng *rand.Rand, n, maxDeg int) *wavefront.Deps {
	adj := make([][]int32, n)
	for i := 1; i < n; i++ {
		deg := rng.Intn(maxDeg + 1)
		for d := 0; d < deg; d++ {
			adj[i] = append(adj[i], int32(rng.Intn(i)))
		}
	}
	return wavefront.FromAdjacency(adj)
}

// orderRecorder returns a body that records completion order and a checker
// verifying every dependence completed before its consumer started.
func depChecker(t *testing.T, deps *wavefront.Deps) (Body, func()) {
	t.Helper()
	n := deps.N
	done := make([]atomic.Bool, n)
	violation := atomic.Bool{}
	body := func(i int32) {
		for _, d := range deps.On(int(i)) {
			if !done[d].Load() {
				violation.Store(true)
			}
		}
		done[i].Store(true)
	}
	check := func() {
		if violation.Load() {
			t.Fatal("a dependence was violated")
		}
		for i := range done {
			if !done[i].Load() {
				t.Fatalf("index %d never executed", i)
			}
		}
	}
	return body, check
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		Sequential: "sequential", PreScheduled: "pre-scheduled",
		SelfExecuting: "self-executing", DoAcross: "doacross",
	} {
		if k.String() != want {
			t.Errorf("%v.String() = %q", int(k), k.String())
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should format")
	}
}

func TestRunSequential(t *testing.T) {
	var order []int32
	m := RunSequential(5, func(i int32) { order = append(order, i) })
	if m.Executed != 5 || m.P != 1 {
		t.Errorf("metrics = %+v", m)
	}
	for i, v := range order {
		if int32(i) != v {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestPreScheduledRespectsDeps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		deps := randomDAG(rng, 400, 3)
		wf, err := wavefront.Compute(deps)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 2, 4, 9} {
			s := schedule.Global(wf, p)
			body, check := depChecker(t, deps)
			m := Run(PreScheduled, s, nil, body)
			check()
			if m.Executed != 400 {
				t.Errorf("executed %d", m.Executed)
			}
			if m.Phases != s.NumPhases {
				t.Errorf("phases %d != %d", m.Phases, s.NumPhases)
			}
		}
	}
}

func TestSelfExecutingRespectsDeps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		deps := randomDAG(rng, 400, 3)
		wf, err := wavefront.Compute(deps)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 2, 4, 9} {
			for _, s := range []*schedule.Schedule{
				schedule.Global(wf, p),
				schedule.Local(wf, p, schedule.Striped),
				schedule.Local(wf, p, schedule.Blocked),
				schedule.Natural(deps.N, p, schedule.Striped),
			} {
				body, check := depChecker(t, deps)
				m := Run(SelfExecuting, s, deps, body)
				check()
				if m.Executed != 400 {
					t.Errorf("executed %d", m.Executed)
				}
			}
		}
	}
}

func TestDoAcrossRespectsDeps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	deps := randomDAG(rng, 300, 2)
	body, check := depChecker(t, deps)
	m := Run(DoAcross, schedule.Natural(300, 7, schedule.Striped), deps, body)
	check()
	if m.Executed != 300 {
		t.Errorf("executed %d", m.Executed)
	}
}

func TestRunDispatch(t *testing.T) {
	deps := wavefront.FromAdjacency([][]int32{{}, {0}, {1}})
	wf, _ := wavefront.Compute(deps)
	s := schedule.Global(wf, 2)
	for _, k := range []Kind{Sequential, PreScheduled, SelfExecuting, DoAcross} {
		body, check := depChecker(t, deps)
		Run(k, s, deps, body)
		check()
	}
}

func TestRunUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Run with unknown kind did not panic")
		}
	}()
	s := schedule.Natural(1, 1, schedule.Striped)
	Run(Kind(42), s, nil, func(int32) {})
}

// TestSelfExecutingComputesCorrectValues runs the paper's simple loop
// x(i) = x(i) + b(i)*x(ia(i)) and compares against sequential execution.
func TestSelfExecutingComputesCorrectValues(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 500
	ia := make([]int32, n)
	for i := range ia {
		ia[i] = int32(rng.Intn(n))
	}
	deps := wavefront.FromIndirection(ia)
	wf, err := wavefront.Compute(deps)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	x0 := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
		x0[i] = rng.NormFloat64()
	}
	mkBody := func(x, xold []float64) Body {
		return func(i int32) {
			needed := ia[i]
			if needed >= i {
				x[i] = xold[i] + b[i]*xold[needed]
			} else {
				x[i] = xold[i] + b[i]*x[needed]
			}
		}
	}
	// Sequential reference.
	xSeq := append([]float64(nil), x0...)
	xold := append([]float64(nil), x0...)
	RunSequential(n, mkBody(xSeq, xold))
	for _, p := range []int{2, 4, 8} {
		for _, kind := range []Kind{PreScheduled, SelfExecuting, DoAcross} {
			x := append([]float64(nil), x0...)
			s := schedule.Global(wf, p)
			Run(kind, s, deps, mkBody(x, xold))
			for i := range x {
				if x[i] != xSeq[i] {
					t.Fatalf("kind=%v p=%d: x[%d] = %v, want %v", kind, p, i, x[i], xSeq[i])
				}
			}
		}
	}
}

func TestSelfExecutingSpinAccounting(t *testing.T) {
	// A pure chain forces waits when split across processors.
	n := 64
	adj := make([][]int32, n)
	for i := 1; i < n; i++ {
		adj[i] = []int32{int32(i - 1)}
	}
	deps := wavefront.FromAdjacency(adj)
	wf, _ := wavefront.Compute(deps)
	s := schedule.Global(wf, 4)
	m := Run(SelfExecuting, s, deps, func(int32) {})
	if m.SpinChecks < int64(n-1) {
		t.Errorf("SpinChecks = %d, want >= %d", m.SpinChecks, n-1)
	}
}

func TestExecutorsProduceSamePermutationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(200)
		deps := randomDAG(rng, n, 3)
		wf, err := wavefront.Compute(deps)
		if err != nil {
			return false
		}
		p := 1 + rng.Intn(8)
		s := schedule.Local(wf, p, schedule.Striped)
		var count atomic.Int64
		Run(SelfExecuting, s, deps, func(int32) { count.Add(1) })
		return count.Load() == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
