package server

import (
	"context"
	"sync"
	"time"
)

// Weighted-fair admission. The pre-tenant server gated /v1/trisolve on
// a single in-flight counter: first MaxInFlight requests in, everyone
// else shed — so one flooding client could monopolize every slot. The
// admission controller replaces that semaphore with per-tenant deficit
// round-robin: each tenant gets a quantum of grants per rotation equal
// to its configured weight, latency-class waiters are drained before
// batch waiters, and per-tenant quotas cap how many slots one tenant
// can hold regardless of its weight.
//
// Requests that cannot be admitted immediately wait in a short
// per-tenant queue (Config.Admission.Queue per class) instead of being
// shed outright; the queue is what fairness is arbitrated over. When
// the queue is full — or queueing is disabled — the request is shed
// with a 429 whose Retry-After is derived from the observed drain rate
// and the depth of work ahead of the caller, not a hard-coded constant.

// admitResult classifies the outcome of an Admit call.
type admitResult uint8

const (
	admitOK admitResult = iota
	// admitShedCapacity: the server is saturated and the tenant's queue
	// is full (or queueing is disabled).
	admitShedCapacity
	// admitShedQuota: the tenant is at its own concurrency quota and
	// its queue is full (or queueing is disabled).
	admitShedQuota
	// admitDraining: the server began draining while the request
	// waited.
	admitDraining
	// admitCancelled: the request's context ended while it waited.
	admitCancelled
)

// waiter is one parked request in a tenant's admission queue.
type waiter struct {
	ready chan admitResult // buffered(1); exactly one outcome is sent
}

// admission is the weighted-fair admission controller.
type admission struct {
	capacity int    // global concurrent-solve cap (MaxInFlight)
	queueCap int    // per-tenant per-class queue cap; <=0 disables queueing
	gauge    *Gauge // loops_http_in_flight: admitted requests only
	queued   *Gauge // loops_admission_queued: parked waiters

	mu       sync.Mutex
	total    int // admitted requests across all tenants
	waiters  int // parked requests across all tenants
	draining bool

	// Deficit-round-robin ring. Tenants join on first enqueue and stay;
	// the ring is bounded by the tenant cardinality cap.
	ring   []*tenantState
	cursor int

	// Drain-rate estimate: EWMA of the interval between releases,
	// feeding Retry-After. Zero until the first pair of releases.
	lastRelease   time.Time
	drainNsPerReq float64
}

func newAdmission(cfg Config, reg *Registry) *admission {
	return &admission{
		capacity: cfg.Admission.MaxInFlight,
		queueCap: cfg.Admission.Queue,
		gauge:    reg.Gauge("loops_http_in_flight", "solve requests currently admitted", nil),
		queued:   reg.Gauge("loops_admission_queued", "solve requests parked in admission queues", nil),
	}
}

// inFlight returns the number of admitted (not queued) requests.
func (a *admission) inFlight() int64 { return a.gauge.Value() }

// queuedOf returns tenant t's current queue depth.
func (a *admission) queuedOf(t *tenantState) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return t.qlen
}

// Admit blocks until the request is granted a slot, shed, or
// cancelled. On a shed outcome it also returns the advisory
// Retry-After seconds. The caller must Release(t) after a granted
// request finishes.
func (a *admission) Admit(ctx context.Context, t *tenantState, class Class) (admitResult, int) {
	a.mu.Lock()
	if a.draining {
		a.mu.Unlock()
		return admitDraining, 0
	}
	// Serve the queue first so a fresh arrival cannot jump tenants that
	// are already waiting; then an immediate grant is fair.
	a.grantLocked()
	if a.total < a.capacity && (t.quota <= 0 || t.inFlight < t.quota) && t.qlen == 0 {
		a.admitLocked(t)
		a.mu.Unlock()
		return admitOK, 0
	}
	shed := admitShedCapacity
	if t.quota > 0 && t.inFlight >= t.quota {
		shed = admitShedQuota
	}
	if a.queueCap <= 0 || len(t.queue[class]) >= a.queueCap {
		retry := a.retryAfterLocked(t)
		a.mu.Unlock()
		return shed, retry
	}
	w := &waiter{ready: make(chan admitResult, 1)}
	if !t.inRing {
		t.inRing = true
		t.deficit = t.weight
		a.ring = append(a.ring, t)
	}
	t.queue[class] = append(t.queue[class], w)
	t.qlen++
	a.waiters++
	a.queued.Set(int64(a.waiters))
	a.mu.Unlock()

	select {
	case res := <-w.ready:
		return res, 0
	case <-ctx.Done():
	}
	a.mu.Lock()
	// The grant may have raced the cancellation: a buffered send wins.
	select {
	case res := <-w.ready:
		a.mu.Unlock()
		return res, 0
	default:
	}
	a.removeWaiterLocked(t, w)
	a.mu.Unlock()
	return admitCancelled, 0
}

// Release returns tenant t's slot and wakes eligible waiters.
func (a *admission) Release(t *tenantState) {
	now := time.Now()
	a.mu.Lock()
	a.total--
	t.inFlight--
	if !a.lastRelease.IsZero() {
		iv := float64(now.Sub(a.lastRelease))
		if iv > float64(60*time.Second) {
			iv = float64(60 * time.Second)
		}
		if a.drainNsPerReq == 0 {
			a.drainNsPerReq = iv
		} else {
			a.drainNsPerReq = 0.8*a.drainNsPerReq + 0.2*iv
		}
	}
	a.lastRelease = now
	a.grantLocked()
	a.mu.Unlock()
	t.inFlightG.Add(-1)
	a.gauge.Add(-1)
}

// drain rejects all parked waiters and future arrivals; admitted
// requests run to completion.
func (a *admission) drain() {
	a.mu.Lock()
	a.draining = true
	for _, t := range a.ring {
		for c := range t.queue {
			for _, w := range t.queue[c] {
				w.ready <- admitDraining
			}
			t.queue[c] = nil
		}
		a.waiters -= t.qlen
		t.qlen = 0
	}
	a.queued.Set(int64(a.waiters))
	a.mu.Unlock()
}

func (a *admission) admitLocked(t *tenantState) {
	a.total++
	t.inFlight++
	t.inFlightG.Add(1)
	a.gauge.Add(1)
}

// grantLocked drains as many waiters as capacity allows, in weighted
// fair order.
func (a *admission) grantLocked() {
	for a.total < a.capacity {
		t, w := a.nextWaiterLocked()
		if w == nil {
			return
		}
		a.admitLocked(t)
		a.waiters--
		a.queued.Set(int64(a.waiters))
		w.ready <- admitOK
	}
}

// nextWaiterLocked picks the next waiter by deficit round-robin:
// a latency-only scan first so latency-class waiters are never stuck
// behind batch waiters of other tenants, then an any-class scan.
func (a *admission) nextWaiterLocked() (*tenantState, *waiter) {
	if t, w := a.scanLocked(true); w != nil {
		return t, w
	}
	return a.scanLocked(false)
}

// scanLocked walks the tenant ring from the cursor. A tenant with
// queued, servable work consumes one deficit per grant and keeps the
// cursor while its deficit lasts. If a full rotation finds servable
// tenants but all deficits are spent, deficits recharge (quantum =
// weight) and the scan retries once.
func (a *admission) scanLocked(latencyOnly bool) (*tenantState, *waiter) {
	if len(a.ring) == 0 {
		return nil, nil
	}
	for pass := 0; pass < 2; pass++ {
		blocked := false
		for i := 0; i < len(a.ring); i++ {
			idx := (a.cursor + i) % len(a.ring)
			t := a.ring[idx]
			if !a.servableLocked(t, latencyOnly) {
				continue
			}
			if t.deficit <= 0 {
				blocked = true
				continue
			}
			t.deficit--
			w := a.popLocked(t, latencyOnly)
			a.cursor = idx
			if t.deficit <= 0 || !a.servableLocked(t, latencyOnly) {
				a.cursor = (idx + 1) % len(a.ring)
			}
			return t, w
		}
		if !blocked {
			return nil, nil
		}
		for _, t := range a.ring {
			if a.servableLocked(t, latencyOnly) {
				t.deficit = t.weight
			}
		}
	}
	return nil, nil
}

// servableLocked reports whether t has a queued request that could be
// granted now (quota allowing).
func (a *admission) servableLocked(t *tenantState, latencyOnly bool) bool {
	if t.quota > 0 && t.inFlight >= t.quota {
		return false
	}
	if len(t.queue[ClassLatency]) > 0 {
		return true
	}
	return !latencyOnly && len(t.queue[ClassBatch]) > 0
}

// popLocked removes and returns t's next waiter, latency class first.
func (a *admission) popLocked(t *tenantState, latencyOnly bool) *waiter {
	c := ClassLatency
	if len(t.queue[c]) == 0 {
		if latencyOnly {
			return nil
		}
		c = ClassBatch
	}
	w := t.queue[c][0]
	t.queue[c] = t.queue[c][1:]
	t.qlen--
	return w
}

func (a *admission) removeWaiterLocked(t *tenantState, w *waiter) {
	for c := range t.queue {
		q := t.queue[c]
		for i := range q {
			if q[i] == w {
				t.queue[c] = append(q[:i:i], q[i+1:]...)
				t.qlen--
				a.waiters--
				a.queued.Set(int64(a.waiters))
				return
			}
		}
	}
}

// retryAfterLocked estimates how long the caller should wait before
// retrying: the work ahead of it (every admitted request plus every
// parked waiter plus itself) divided by the observed drain rate,
// clamped to [1s, 60s]. Before any drain signal exists it falls back
// to the old constant of 1 second.
func (a *admission) retryAfterLocked(t *tenantState) int {
	if a.drainNsPerReq <= 0 {
		return 1
	}
	ahead := a.total + a.waiters + 1
	secs := float64(ahead) * a.drainNsPerReq / 1e9
	s := int(secs)
	if float64(s) < secs {
		s++
	}
	if s < 1 {
		s = 1
	}
	if s > 60 {
		s = 60
	}
	return s
}
