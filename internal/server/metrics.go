package server

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// This file is a deliberately small metrics registry — counters, gauges
// and latency histograms rendered in the Prometheus text exposition
// format — shared by the HTTP handlers, the solve pipeline and the plan
// cache. It avoids an external client library (the repository carries no
// dependencies) while keeping the exposition scrape-compatible.

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	v uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { atomic.AddUint64(&c.v, n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return atomic.LoadUint64(&c.v) }

// Gauge is an instantaneous int64 metric (e.g. in-flight requests).
type Gauge struct {
	v int64
}

// Add moves the gauge by n (n may be negative), returning the new value.
func (g *Gauge) Add(n int64) int64 { return atomic.AddInt64(&g.v, n) }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { atomic.StoreInt64(&g.v, n) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return atomic.LoadInt64(&g.v) }

// Histogram is a fixed-bucket cumulative histogram. Observations are
// lock-free; rendering takes a point-in-time snapshot per bucket (the
// buckets are independently atomic, which is the usual Prometheus
// client guarantee).
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf is implicit
	counts []uint64  // len(bounds)+1; last is the +Inf bucket
	sum    uint64    // math.Float64bits-encoded running sum, CAS-updated
	count  uint64
}

// DefaultLatencyBuckets spans 100µs to 10s, the range of a triangular
// solve request from a cache-hit solo pass to a cold large-problem
// inspector run under load.
var DefaultLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// NewHistogram returns a histogram over the given ascending upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	atomic.AddUint64(&h.counts[i], 1)
	atomic.AddUint64(&h.count, 1)
	for {
		old := atomic.LoadUint64(&h.sum)
		next := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(&h.sum, old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return atomic.LoadUint64(&h.count) }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(atomic.LoadUint64(&h.sum)) }

// Quantile returns an upper-bound estimate of quantile q in [0,1] from
// the bucket counts (the bound of the bucket where the quantile falls).
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := range h.counts {
		cum += atomic.LoadUint64(&h.counts[i])
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}

// metricKind tags a registered family for the # TYPE line.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

// series is one registered metric instance: a family name plus a fixed
// label set.
type series struct {
	family string
	labels string // pre-rendered `{k="v",...}` or ""
	kind   metricKind
	c      *Counter
	g      *Gauge
	gf     func() float64
	h      *Histogram
}

// Registry holds the server's metric families and renders them in
// Prometheus text format. Registration happens at construction time;
// lookups during request handling touch only the returned metric values,
// never the registry lock.
type Registry struct {
	mu       sync.Mutex
	families map[string]string // family -> help
	order    []string          // families in registration order
	series   []series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]string)}
}

// Labels is an ordered label set. Order is preserved in the exposition,
// so call sites should pass labels in a consistent order.
type Labels [][2]string

func renderLabels(ls Labels) string {
	if len(ls) == 0 {
		return ""
	}
	s := "{"
	for i, kv := range ls {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%s=%q", kv[0], kv[1])
	}
	return s + "}"
}

func (r *Registry) register(family, help string, s series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.families[family]; !ok {
		r.families[family] = help
		r.order = append(r.order, family)
	}
	r.series = append(r.series, s)
}

// Counter registers and returns a counter with the given labels.
func (r *Registry) Counter(family, help string, ls Labels) *Counter {
	c := &Counter{}
	r.register(family, help, series{family: family, labels: renderLabels(ls), kind: kindCounter, c: c})
	return c
}

// Gauge registers and returns a gauge with the given labels.
func (r *Registry) Gauge(family, help string, ls Labels) *Gauge {
	g := &Gauge{}
	r.register(family, help, series{family: family, labels: renderLabels(ls), kind: kindGauge, g: g})
	return g
}

// GaugeFunc registers a gauge whose value is computed at scrape time —
// used to surface plan-cache statistics without double bookkeeping.
func (r *Registry) GaugeFunc(family, help string, ls Labels, f func() float64) {
	r.register(family, help, series{family: family, labels: renderLabels(ls), kind: kindGaugeFunc, gf: f})
}

// Histogram registers and returns a histogram with the given labels.
func (r *Registry) Histogram(family, help string, ls Labels, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.register(family, help, series{family: family, labels: renderLabels(ls), kind: kindHistogram, h: h})
	return h
}

// WritePrometheus renders every registered metric in the text exposition
// format, families in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	order := append([]string(nil), r.order...)
	families := make(map[string]string, len(r.families))
	for k, v := range r.families {
		families[k] = v
	}
	ss := append([]series(nil), r.series...)
	r.mu.Unlock()

	for _, fam := range order {
		typ := "counter"
		for _, s := range ss {
			if s.family != fam {
				continue
			}
			switch s.kind {
			case kindGauge, kindGaugeFunc:
				typ = "gauge"
			case kindHistogram:
				typ = "histogram"
			}
			break
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", fam, families[fam], fam, typ); err != nil {
			return err
		}
		for _, s := range ss {
			if s.family != fam {
				continue
			}
			if err := writeSeries(w, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, s series) error {
	switch s.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", s.family, s.labels, s.c.Value())
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s%s %d\n", s.family, s.labels, s.g.Value())
		return err
	case kindGaugeFunc:
		_, err := fmt.Fprintf(w, "%s%s %g\n", s.family, s.labels, s.gf())
		return err
	case kindHistogram:
		var cum uint64
		for i, bound := range s.h.bounds {
			cum += atomic.LoadUint64(&s.h.counts[i])
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", s.family, withLE(s.labels, formatBound(bound)), cum); err != nil {
				return err
			}
		}
		cum += atomic.LoadUint64(&s.h.counts[len(s.h.bounds)])
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", s.family, withLE(s.labels, "+Inf"), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", s.family, s.labels, s.h.Sum()); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", s.family, s.labels, s.h.Count())
		return err
	}
	return nil
}

// withLE merges an le label into a pre-rendered label block.
func withLE(labels, bound string) string {
	le := fmt.Sprintf("le=%q", bound)
	if labels == "" {
		return "{" + le + "}"
	}
	return labels[:len(labels)-1] + "," + le + "}"
}

func formatBound(b float64) string {
	return fmt.Sprintf("%g", b)
}
