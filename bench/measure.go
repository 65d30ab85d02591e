package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// instance is one set-up of a workload: inputs generated, whatever it
// serves from started, caches warm. Each client executes its own
// pre-generated op sequence in order.
type instance interface {
	clients() int
	// do runs client c's next op. verify asks for the oracle check after
	// the latency stamp; sp is non-nil only inside the traced loop.
	do(c int, verify bool, sp *spanLog) opResult
	// layers fills the per-layer metrics this workload can measure: stats
	// deltas over the traced loop and probes on the workload's inputs.
	layers(lm layerMetrics, tr *tracedLoop, budget time.Duration) error
	// digest identifies the generated request sequences.
	digest() string
	// mark snapshots the layers' counters at the start of the traced loop.
	mark()
	// close tears everything down and reports what it left behind.
	close() (leaks, error)
}

type opStatus uint8

const (
	opOK opStatus = iota
	opRefused
	opFailed
)

type opResult struct {
	status opStatus
	lat    time.Duration
	err    error
}

// segment is one measured stretch of ops.
type segment struct {
	ops     int // attempted
	ok      int
	refused int
	failed  int
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64          // bytes, whole process
	lat     []time.Duration // latencies of OK ops, ascending
	err     string          // first failure, so "N failed" is debuggable
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runOps has every client execute perClient ops, verifying every
// verifyEvery-th one, and measures the stretch.
func runOps(inst instance, perClient, verifyEvery int, logs []*spanLog) segment {
	nc := inst.clients()
	lats := make([][]time.Duration, nc)
	res := make([]segment, nc)
	for c := range lats {
		lats[c] = make([]time.Duration, 0, perClient)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, cpu0 := ms.TotalAlloc, cpuTime()
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < nc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var sp *spanLog
			if logs != nil {
				sp = logs[c]
			}
			r := &res[c]
			for i := 0; i < perClient; i++ {
				out := inst.do(c, i%verifyEvery == 0, sp)
				r.ops++
				switch out.status {
				case opOK:
					r.ok++
					lats[c] = append(lats[c], out.lat)
				case opRefused:
					r.refused++
				default:
					r.failed++
				}
				if out.err != nil && r.err == "" {
					r.err = out.err.Error()
				}
			}
		}(c)
	}
	wg.Wait()
	seg := segment{wall: time.Since(start), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&ms)
	seg.alloc = ms.TotalAlloc - alloc0
	for c := range res {
		seg.ops += res[c].ops
		seg.ok += res[c].ok
		seg.refused += res[c].refused
		seg.failed += res[c].failed
		if seg.err == "" {
			seg.err = res[c].err
		}
		seg.lat = append(seg.lat, lats[c]...)
	}
	sort.Slice(seg.lat, func(i, j int) bool { return seg.lat[i] < seg.lat[j] })
	return seg
}

// percentile is the nearest-rank q-quantile of an ascending sample.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// endToEndOf computes the per-segment end-to-end timings (setup_s is
// added by the caller).
func (s segment) endToEndOf(rhsPerOp int) map[string]float64 {
	ops := float64(s.ops)
	return map[string]float64{
		"solves_per_s":    float64(s.ok*rhsPerOp) / s.wall.Seconds(),
		"latency_p50_ms":  ms(percentile(s.lat, 0.50)),
		"latency_p90_ms":  ms(percentile(s.lat, 0.90)),
		"cpu_ms_per_op":   ms(s.cpu) / ops,
		"alloc_kb_per_op": float64(s.alloc) / 1024 / ops,
	}
}

// value is one reported metric: the median of its samples and their
// spread — the range of the samples with the lowest and the highest set
// aside, over the median. One segment in five disturbed by a neighbour or
// a collection is routine on a shared 2-core host; it moves neither the
// median nor this spread, so the spread says how well the median itself
// is resolved.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Spread  float64 `json:"spread,omitempty"`
	Samples int     `json:"samples,omitempty"`
	// Each is the per-segment (or per-set-up) values behind an end-to-end
	// median, in run order.
	Each []float64 `json:"each,omitempty"`
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func summarize(xs []float64, unit string) value {
	v := value{Value: median(xs), Unit: unit, Samples: len(xs), Each: xs}
	if len(xs) >= 3 && v.Value != 0 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		v.Spread = (s[len(s)-2] - s[1]) / math.Abs(v.Value)
	}
	return v
}

func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// probe calls f repeatedly — at most 200 times, at least 3, stopping
// once budget is spent — and returns the median call time in
// nanoseconds and the number of calls.
func probe(budget time.Duration, f func()) (float64, int) {
	const maxCalls, minCalls = 200, 3
	times := make([]float64, 0, maxCalls)
	start := time.Now()
	for len(times) < maxCalls {
		t0 := time.Now()
		f()
		times = append(times, float64(time.Since(t0)))
		if len(times) >= minCalls && time.Since(start) > budget {
			break
		}
	}
	return median(times), len(times)
}

// layerMetrics collects per-layer values by name.
type layerMetrics map[string]value

// set records a value unless the name already has one: a workload sets
// what its own loop measured first, and the probes that follow fill in
// only what is still missing.
func (lm layerMetrics) set(name string, v float64, samples int) {
	if _, ok := lm[name]; ok {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	lm[name] = value{Value: v, Samples: samples}
}

// complete gives every catalogued metric its unit and fills the ones the
// workload cannot measure with 0; an uncatalogued name is a bug.
func (lm layerMetrics) complete() error {
	known := make(map[string]bool, len(perLayer))
	for _, m := range perLayer {
		known[m.Name] = true
		v := lm[m.Name]
		v.Unit = m.Unit
		lm[m.Name] = v
	}
	for name := range lm {
		if !known[name] {
			return fmt.Errorf("bench: per-layer metric %q is not in the catalogue", name)
		}
	}
	return nil
}
