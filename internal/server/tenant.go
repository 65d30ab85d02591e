package server

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Multi-tenant identity. Every solve request belongs to a tenant and a
// priority class. JSON clients name theirs with the X-Doconsider-Tenant
// header; binary clients may additionally carry a tenant section in the
// frame (section 17), which is authoritative for attribution once the
// frame is decoded — the header still drives admission, which runs
// before the body is read. Requests that name no tenant belong to the
// "default" tenant in the batch class, which reproduces the pre-tenant
// server behavior exactly.
//
// Tenants are created on first use. The registry caps how many distinct
// tenants get their own accounting (Config.Tenant.Max); traffic beyond
// the cap is lumped into the shared "other" tenant so a client fanning
// out random tenant names cannot grow /metrics without bound.

// TenantHeader names the requesting tenant on POST /v1/trisolve:
//
//	X-Doconsider-Tenant: analytics
//	X-Doconsider-Tenant: frontend;class=latency
//
// The optional class parameter selects the priority class (default
// batch). Tenant names are 1-64 bytes of [A-Za-z0-9._-].
const TenantHeader = "X-Doconsider-Tenant"

// DefaultTenant is the tenant of requests that name none.
const DefaultTenant = "default"

// OverflowTenant absorbs tenants beyond the Tenant.Max cardinality cap.
const OverflowTenant = "other"

// Class is a request priority class. Latency-class requests are granted
// admission ahead of batch waiters.
type Class uint8

const (
	// ClassBatch is the default: throughput traffic.
	ClassBatch Class = iota
	// ClassLatency marks latency-sensitive traffic: priority in the
	// admission queue.
	ClassLatency

	numClasses = 2
)

// String returns the stable metric-label name of the class.
func (c Class) String() string {
	if c == ClassLatency {
		return "latency"
	}
	return "batch"
}

// ParseClass parses a class name ("batch" or "latency").
func ParseClass(s string) (Class, error) {
	switch s {
	case "batch":
		return ClassBatch, nil
	case "latency":
		return ClassLatency, nil
	}
	return 0, fmt.Errorf("unknown class %q (want latency or batch)", s)
}

// maxTenantNameLen bounds tenant names on both wires (the inline trace
// field truncates longer names; the wire rejects them outright).
const maxTenantNameLen = 64

// validTenantNameByte reports whether b may appear in a tenant name.
func validTenantNameByte(b byte) bool {
	switch {
	case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b >= '0' && b <= '9':
		return true
	case b == '.' || b == '_' || b == '-':
		return true
	}
	return false
}

// validateTenantNameBytes checks a tenant name without allocating (the
// binary path validates the frame section's payload view in place).
func validateTenantNameBytes(name []byte) error {
	if len(name) == 0 {
		return fmt.Errorf("empty tenant name")
	}
	if len(name) > maxTenantNameLen {
		return fmt.Errorf("tenant name has %d bytes, limit %d", len(name), maxTenantNameLen)
	}
	for _, b := range name {
		if !validTenantNameByte(b) {
			return fmt.Errorf("tenant name contains %q (want [A-Za-z0-9._-])", b)
		}
	}
	return nil
}

// parseTenantHeader resolves the X-Doconsider-Tenant header value: a
// tenant name with an optional ";class=latency|batch" parameter. An
// empty header is the default tenant in the batch class.
func parseTenantHeader(h string) (string, Class, error) {
	if h == "" {
		return DefaultTenant, ClassBatch, nil
	}
	name, class := h, ClassBatch
	if i := strings.IndexByte(h, ';'); i >= 0 {
		name = strings.TrimSpace(h[:i])
		param := strings.TrimSpace(h[i+1:])
		const pfx = "class="
		if !strings.HasPrefix(param, pfx) {
			return "", 0, fmt.Errorf("malformed %s parameter %q (want class=latency or class=batch)", TenantHeader, param)
		}
		var err error
		if class, err = ParseClass(param[len(pfx):]); err != nil {
			return "", 0, err
		}
	}
	if err := validateTenantNameBytes([]byte(name)); err != nil {
		return "", 0, err
	}
	return name, class, nil
}

// tenantState is one tenant's identity, QoS parameters, and accounting.
// The admission-scheduler fields (inFlight, deficit, queue, qlen,
// inRing) are guarded by the admission mutex; the metric fields are
// lock-free.
type tenantState struct {
	name   string
	weight int // deficit-round-robin quantum (grants per rotation)
	quota  int // concurrent-solve cap; 0 = bounded only by MaxInFlight

	// Admission state, guarded by admission.mu.
	inFlight int
	deficit  int
	queue    [numClasses][]*waiter
	qlen     int
	inRing   bool

	// Accounting.
	accepted  *Counter
	shed      *Counter
	classReq  [numClasses]*Counter
	inFlightG *Gauge
	latH      *Histogram
}

// observe attributes one finished solve to the tenant: the class
// counter and the latency histogram. Lock-free and allocation-free —
// it runs inside the warm binary path's 0 allocs/op boundary.
func (t *tenantState) observe(class Class, totalNs int64) {
	t.classReq[class].Inc()
	t.latH.Observe(float64(totalNs) / 1e9)
}

// tenantRegistry maps tenant names to their state, creating tenants on
// first use up to the cardinality cap.
type tenantRegistry struct {
	reg     *Registry
	max     int
	weights map[string]int
	quotas  map[string]int
	quota   int // default per-tenant quota; 0 = none

	mu       sync.RWMutex
	byName   map[string]*tenantState
	list     []*tenantState
	def      *tenantState
	overflow *tenantState // lazily created when the cap is reached
}

func newTenantRegistry(reg *Registry, cfg Config) *tenantRegistry {
	r := &tenantRegistry{
		reg:     reg,
		max:     cfg.Tenant.Max,
		weights: cfg.Tenant.Weights,
		quotas:  cfg.Tenant.Quotas,
		quota:   cfg.Tenant.Quota,
		byName:  make(map[string]*tenantState),
	}
	r.def = r.createLocked(DefaultTenant)
	return r
}

// resolve returns the tenant for name, creating it if the cardinality
// cap allows and lumping it into the overflow tenant otherwise.
func (r *tenantRegistry) resolve(name string) *tenantState {
	r.mu.RLock()
	t := r.byName[name]
	r.mu.RUnlock()
	if t != nil {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t := r.byName[name]; t != nil {
		return t
	}
	if len(r.list) >= r.max {
		if r.overflow == nil {
			r.overflow = r.newState(OverflowTenant)
			r.list = append(r.list, r.overflow)
		}
		return r.overflow
	}
	return r.createLocked(name)
}

// resolveBytes is resolve keyed by a byte-slice view into the request
// frame. The warm path — a known tenant — performs no allocation: the
// map lookup with an inline string conversion compiles to a no-copy
// probe, and only the cold create path materializes the string.
func (r *tenantRegistry) resolveBytes(name []byte) *tenantState {
	r.mu.RLock()
	t := r.byName[string(name)]
	r.mu.RUnlock()
	if t != nil {
		return t
	}
	return r.resolve(string(name))
}

func (r *tenantRegistry) createLocked(name string) *tenantState {
	t := r.newState(name)
	r.byName[name] = t
	r.list = append(r.list, t)
	return t
}

func (r *tenantRegistry) newState(name string) *tenantState {
	weight := r.weights[name]
	if weight < 1 {
		weight = 1
	}
	quota, ok := r.quotas[name]
	if !ok {
		quota = r.quota
	}
	if quota < 0 {
		quota = 0
	}
	lbl := Labels{{"tenant", name}}
	t := &tenantState{
		name:      name,
		weight:    weight,
		quota:     quota,
		accepted:  r.reg.Counter("loops_tenant_accepted_total", "solve requests admitted, by tenant", lbl),
		shed:      r.reg.Counter("loops_tenant_shed_total", "solve requests shed, by tenant", lbl),
		inFlightG: r.reg.Gauge("loops_tenant_in_flight", "solve requests currently admitted, by tenant", lbl),
		latH: r.reg.Histogram("loops_tenant_request_seconds", "solve request latency by tenant",
			lbl, DefaultLatencyBuckets),
	}
	for c := 0; c < numClasses; c++ {
		t.classReq[c] = r.reg.Counter("loops_tenant_requests_total", "solve requests by tenant and class",
			Labels{{"tenant", name}, {"class", Class(c).String()}})
	}
	return t
}

// snapshot returns the registered tenants, sorted by name (for stats).
func (r *tenantRegistry) snapshot() []*tenantState {
	r.mu.RLock()
	out := append([]*tenantState(nil), r.list...)
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// TenantStats is one tenant's /v1/stats breakdown.
type TenantStats struct {
	Name            string  `json:"name"`
	Weight          int     `json:"weight"`
	Quota           int     `json:"quota,omitempty"` // 0 = unbounded
	InFlight        int64   `json:"in_flight"`
	Queued          int     `json:"queued"`
	Accepted        uint64  `json:"accepted"`
	Shed            uint64  `json:"shed"`
	LatencyRequests uint64  `json:"latency_requests"`
	BatchRequests   uint64  `json:"batch_requests"`
	P50Ms           float64 `json:"p50_ms"`
	P99Ms           float64 `json:"p99_ms"`
}
