package executor

import (
	"math/rand"
	"testing"
	"time"

	"doconsider/internal/schedule"
	"doconsider/internal/wavefront"
)

func TestRunSelfExecutingTimed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	deps := randomDAG(rng, 500, 3)
	wf, err := wavefront.Compute(deps)
	if err != nil {
		t.Fatal(err)
	}
	s := schedule.Global(wf, 4)
	body, check := depChecker(t, deps)
	m, bd := RunSelfExecutingTimed(s, deps, body)
	check()
	if m.Executed != 500 {
		t.Errorf("executed %d", m.Executed)
	}
	// One account per participant: the pass's width, at most one per list.
	if bd.P != m.P || bd.P < 1 || bd.P > 4 || len(bd.Busy) != bd.P || len(bd.Waiting) != bd.P {
		t.Fatalf("breakdown shape wrong for width %d: %+v", m.P, bd)
	}
	if bd.Total <= 0 {
		t.Error("total time not recorded")
	}
	for p := 0; p < bd.P; p++ {
		if bd.Busy[p] < 0 || bd.Waiting[p] < 0 {
			t.Errorf("negative time on proc %d", p)
		}
		if bd.Busy[p]+bd.Waiting[p] > 50*bd.Total {
			t.Errorf("proc %d accounting implausible", p)
		}
	}
	if w := bd.MaxWaiting(); w < 0 || w > 1 {
		t.Errorf("MaxWaiting = %v", w)
	}
}

func TestRunPreScheduledTimed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	deps := randomDAG(rng, 400, 2)
	wf, err := wavefront.Compute(deps)
	if err != nil {
		t.Fatal(err)
	}
	s := schedule.Global(wf, 3)
	body, check := depChecker(t, deps)
	m, bd := RunPreScheduledTimed(s, body)
	check()
	if m.Phases != s.NumPhases {
		t.Errorf("phases %d, want %d", m.Phases, s.NumPhases)
	}
	if bd.Total <= 0 {
		t.Error("total time not recorded")
	}
	if bd.P != m.P || len(bd.Waiting) != bd.P {
		t.Fatalf("breakdown shape wrong for width %d: %+v", m.P, bd)
	}
	for p := 0; p < bd.P; p++ {
		if bd.Waiting[p] < 0 {
			t.Errorf("negative waiting on proc %d", p)
		}
	}
}

func TestMaxWaitingEmpty(t *testing.T) {
	empty := TimeBreakdown{P: 2,
		Busy:    make([]time.Duration, 2),
		Waiting: make([]time.Duration, 2),
	}
	if got := empty.MaxWaiting(); got != 0 {
		t.Errorf("MaxWaiting on zero times = %v", got)
	}
}
