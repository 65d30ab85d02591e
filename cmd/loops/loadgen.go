package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"doconsider/client"
	"doconsider/internal/obs"
	"doconsider/internal/plancache"
	"doconsider/internal/problems"
	"doconsider/internal/router"
	"doconsider/internal/server"
	"doconsider/internal/synthetic"
)

// Wire formats the load generator can speak. JSON packs the RHS as
// base64 (b_b64); binary ships the whole request as a zero-copy frame
// (Content-Type application/x-doconsider-frame) that the server decodes
// by slicing into pooled arena memory.
const (
	wireJSON   = "json"
	wireBinary = "binary"
)

// loadgenConfig parameterizes the concurrent load generator: a pool of
// client goroutines posts triangular-solve requests to a running server
// over the recurring problem suite and reports throughput, latency
// percentiles and the run's deltas of the target's /v1/stats: a server's
// cache rates, or a front door's routing counts.
type loadgenConfig struct {
	baseURL    string        // e.g. http://127.0.0.1:8080
	clients    int           // concurrent client goroutines
	requests   int           // total requests across all clients
	batch      int           // right-hand sides per request
	seed       int64         // base RNG seed; client i uses seed+i
	timeout    time.Duration // per-request client timeout (0 = none)
	problems   []string      // problem names; nil = the trisolve suite
	fullMatrix bool          // ship the full CSR every request instead of by-fingerprint reuse
	driftRate  float64       // probability a request structurally drifts its problem
	driftEdits int           // row edits per drift step
	wire       string        // wireJSON (default when empty) or wireBinary
	trace      bool          // fetch /v1/trace after the run and report per-stage latency
	tenants    int           // adversarial multi-tenant mix: tenant 0 latency-class, rest batch (0 disables)
	tag        tenantTag     // per-client tenant identity; set on goroutine-local copies, not shared
}

// flags declares the load generator's flags on fs. -timeout is the
// command's: serve takes it from the server's deadline.
func (cfg *loadgenConfig) flags(fs *flag.FlagSet) {
	fs.IntVar(&cfg.clients, "clients", 8, "concurrent client goroutines")
	fs.IntVar(&cfg.requests, "requests", 64, "total solve requests")
	fs.IntVar(&cfg.batch, "batch", 8, "right-hand sides per request")
	fs.Int64Var(&cfg.seed, "seed", 1989, "base RNG seed (client i uses seed+i)")
	fs.Float64Var(&cfg.driftRate, "drift-rate", 0, "probability a request structurally drifts its problem (base_fp+edits)")
	fs.IntVar(&cfg.driftEdits, "drift-edits", 4, "row edits per drift step")
	fs.StringVar(&cfg.wire, "wire", wireJSON, "wire format, json or binary (zero-copy frames)")
	fs.BoolVar(&cfg.trace, "trace", false, "fetch /v1/trace after the run and print per-stage latency percentiles")
	fs.IntVar(&cfg.tenants, "tenants", 0, "adversarial tenant mix: tenant 0 latency-class, rest flooding batch (0 disables, else >= 2)")
}

// check is the load generator's one validation: the commands run it at
// parse time, and loadgen runs it before any traffic.
func (cfg *loadgenConfig) check() error {
	switch {
	case cfg.clients < 1 || cfg.requests < 1 || cfg.batch < 1:
		return fmt.Errorf("usage: -clients, -requests and -batch must be positive, got %d, %d and %d",
			cfg.clients, cfg.requests, cfg.batch)
	case cfg.timeout < 0:
		return fmt.Errorf("usage: -timeout must not be negative, got %s", cfg.timeout)
	case cfg.driftRate < 0 || cfg.driftRate > 1:
		return fmt.Errorf("usage: -drift-rate must be in [0,1], got %g", cfg.driftRate)
	case cfg.driftRate > 0 && cfg.driftEdits < 1:
		return fmt.Errorf("usage: -drift-edits must be positive when -drift-rate is set, got %d", cfg.driftEdits)
	case cfg.tenants != 0 && cfg.tenants < 2:
		return fmt.Errorf("usage: -tenants must be 0 (off) or >= 2 (1 latency + >=1 batch), got %d", cfg.tenants)
	}
	switch cfg.wire {
	case "", wireJSON, wireBinary:
		return nil
	}
	return fmt.Errorf("usage: -wire must be %s or %s, got %q", wireJSON, wireBinary, cfg.wire)
}

// loadgenCmd is `loops loadgen`: drive a running server or front door.
type loadgenCmd struct {
	addr string
	load loadgenConfig
}

func (c *loadgenCmd) flags(fs *flag.FlagSet) {
	fs.StringVar(&c.addr, "addr", ":8080", "target host:port")
	fs.DurationVar(&c.load.timeout, "timeout", 30*time.Second, "client timeout")
	c.load.flags(fs)
}

func (c *loadgenCmd) check() error { return c.load.check() }

func (c *loadgenCmd) run() error {
	target := c.addr
	if strings.HasPrefix(target, ":") {
		target = "127.0.0.1" + target
	}
	c.load.baseURL = "http://" + target
	rep, err := loadgen(os.Stdout, c.load)
	return report(os.Stdout, rep, err, c.load.batch)
}

// tenantTag is the per-client tenant identity in -tenants mode. The zero
// tag means untagged traffic (the server files it under its default
// tenant), which keeps single-tenant runs byte-identical to before.
type tenantTag struct {
	name  string
	class string // "latency" or "batch"; "" defaults to batch server-side
}

// tenantTagFor maps a client to its tenant in the adversarial mix:
// clients are dealt round-robin across cfg.tenants tenants, tenant 0 is
// the lone latency-class tenant and the rest flood as batch class.
func (cfg *loadgenConfig) tenantTagFor(clientID int) tenantTag {
	if cfg.tenants < 2 {
		return tenantTag{}
	}
	ti := clientID % cfg.tenants
	if ti == 0 {
		return tenantTag{name: "lat-0", class: "latency"}
	}
	return tenantTag{name: fmt.Sprintf("batch-%d", ti), class: "batch"}
}

// clientFor derives the per-tenant client for the tag: untagged traffic
// rides the shared base client unchanged.
func (tag tenantTag) clientFor(base *client.Client) *client.Client {
	if tag.name == "" {
		return base
	}
	return base.ForTenant(tag.name, tag.class)
}

// loadgenReport aggregates one load-generation run.
type loadgenReport struct {
	elapsed        time.Duration
	ok             int
	refused        int    // 429 shed + 503 draining
	failed         int    // transport errors and unexpected statuses
	failMsg        string // sample failure, so "N failed" is debuggable
	drifted        int    // OK responses to base_fp+edits drift requests
	driftFell      int    // drift requests that fell back to a full ship (404)
	latencies      []time.Duration
	statsOK        bool
	planCache      plancache.Stats // this run's plan-cache lookups (Resident: after the run)
	shed           uint64
	repairs        uint64                      // plan misses served by delta repair
	repairFalls    uint64                      // repair attempts that rebuilt instead
	plannerKind    string                      // server's configured kind ("auto" = adaptive)
	procs          int                         // server's processors per plan
	plannerCounts  map[string]uint64           // plan builds by chosen strategy
	superPlans     uint64                      // fused plan builds this run
	superRows      uint64                      // rows those plans cover
	superFusedRows uint64                      // rows inside width >= 2 supernodes
	superMaxWidth  int                         // widest supernode the cache has seen
	stageMs        map[string][]float64        // per-stage millisecond samples from /v1/trace (-trace)
	traceDropped   uint64                      // traces the server's ring dropped under contention
	perTenant      map[string]*tenantRunReport // -tenants mode: client-side per-tenant breakdown
	tenantStats    []server.TenantStats        // server-side per-tenant snapshot after the run
	front          *router.StatsResponse       // a front door's deltas this run: Requests, Retries, Failures, RouteKinds
}

// tenantRunReport is one tenant's client-side slice of the run.
type tenantRunReport struct {
	class     string
	ok        int
	refused   int
	failed    int
	latencies []time.Duration
}

// pct returns the q-quantile of an ascending-sorted sample (zero when
// the sample is empty).
func pct[T time.Duration | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(max(int(q*float64(len(sorted)))-1, 0), len(sorted)-1)]
}

// throughput returns completed solves per second (requests x batch).
func (r *loadgenReport) throughput(batch int) float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.ok*batch) / r.elapsed.Seconds()
}

// loadTemplate is the per-problem state of the load generator: a
// client.Factor handle (which owns the fingerprint-resubmission and
// drift discipline) plus the wavefronts drift-edit generation needs.
// Templates are shared across all clients — real tenants recurring on
// one problem would do the same.
type loadTemplate struct {
	f  *client.Factor
	wf []int32 // wavefronts of the factor; invariant under level-compatible drift
}

func loadgenTemplates(names []string) ([]*loadTemplate, error) {
	tmpl := make([]*loadTemplate, len(names))
	for i, name := range names {
		p, err := problems.Get(name)
		if err != nil {
			return nil, err
		}
		tmpl[i] = &loadTemplate{f: client.NewFactor(p.L, true), wf: p.Wf}
	}
	return tmpl, nil
}

// targetStats is one /v1/stats reply: a server's, or, when the reply
// lists backends, a front door's.
type targetStats struct {
	server server.StatsResponse
	front  *router.StatsResponse
}

// fetchStats reads /v1/stats; failures are soft (the server may already
// be draining when the run ends).
func fetchStats(cli *client.Client) (st targetStats, ok bool) {
	var raw json.RawMessage
	if err := cli.GetJSON(context.Background(), "/v1/stats", &raw); err != nil {
		return st, false
	}
	var front router.StatsResponse
	if json.Unmarshal(raw, &front) == nil && front.Backends != nil {
		return targetStats{front: &front}, true
	}
	return st, json.Unmarshal(raw, &st.server) == nil
}

// fetchTraces pulls up to limit completed traces from the server's ring
// and buckets their per-stage millisecond samples by stage name.
// Failures are soft, like fetchStats.
func fetchTraces(cli *client.Client, limit int) (map[string][]float64, uint64, bool) {
	var tl server.TraceListResponse
	if err := cli.GetJSON(context.Background(), fmt.Sprintf("/v1/trace?limit=%d", limit), &tl); err != nil {
		return nil, 0, false
	}
	stages := make(map[string][]float64)
	for _, tr := range tl.Traces {
		for stage, ms := range tr.Stages {
			stages[stage] = append(stages[stage], ms)
		}
	}
	return stages, tl.Dropped, true
}

// loadgen drives the server at cfg.baseURL and returns the aggregated
// report. Requests shed (429) or refused while draining (503) are counted
// but not retried, so a drain mid-run terminates cleanly.
func loadgen(w io.Writer, cfg loadgenConfig) (*loadgenReport, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	names := cfg.problems
	if len(names) == 0 {
		names = problems.TriSolveNames()
	}
	tmpl, err := loadgenTemplates(names)
	if err != nil {
		return nil, err
	}
	wire := cfg.wire
	if wire == "" {
		wire = wireJSON
	}
	fmt.Fprintf(w, "loadgen: %d clients, %d requests, batch %d over %d problems (%s wire) -> %s\n",
		cfg.clients, cfg.requests, cfg.batch, len(tmpl), wire, cfg.baseURL)
	if cfg.driftRate > 0 {
		fmt.Fprintf(w, "loadgen: drifting workload: rate %.2f, %d row edits per drift (base_fp+edits requests)\n",
			cfg.driftRate, cfg.driftEdits)
	}
	if cfg.tenants >= 2 {
		fmt.Fprintf(w, "loadgen: adversarial tenant mix: 1 latency tenant (lat-0) vs %d batch tenants\n", cfg.tenants-1)
	}
	ctx := context.Background()
	wireOpt := client.WireJSON
	if cfg.wire == wireBinary {
		wireOpt = client.WireBinary
	}
	cli := client.New(cfg.baseURL, client.WithWire(wireOpt), client.WithTimeout(cfg.timeout))

	// Warmup (untimed): register every factor with a full submission so
	// the timed run measures the recurring steady state — by-fingerprint
	// requests over warm plan and factor caches. Factor.Solve ships the
	// full matrix (no fingerprint yet) and commits the returned one.
	if !cfg.fullMatrix {
		rng := rand.New(rand.NewSource(cfg.seed - 1))
		for _, t := range tmpl {
			if _, err := t.f.Solve(ctx, cli, randomBatch(rng, 1, t.f.N())); err != nil {
				return nil, fmt.Errorf("loadgen: warmup: %w", err)
			}
		}
	}
	before, beforeOK := fetchStats(cli)

	var next atomic.Int64
	var mu sync.Mutex
	rep := &loadgenReport{}
	if cfg.tenants >= 2 {
		rep.perTenant = make(map[string]*tenantRunReport)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(clientID int) {
			defer wg.Done()
			// Per-tenant derived client: shares the base client's
			// transport, adds the tenant identity to every request.
			tag := cfg.tenantTagFor(clientID)
			ccli := tag.clientFor(cli)
			rng := rand.New(rand.NewSource(cfg.seed + int64(clientID)))
			for {
				reqID := int(next.Add(1)) - 1
				if reqID >= cfg.requests {
					return
				}
				t := tmpl[rng.Intn(len(tmpl))]
				b := randomBatch(rng, cfg.batch, t.f.N())
				drift := cfg.driftRate > 0 && cfg.driftEdits > 0 && !cfg.fullMatrix &&
					rng.Float64() < cfg.driftRate
				t0 := time.Now()
				var sr *client.Response
				var err error
				attempted, fellBack := false, false
				switch {
				case cfg.fullMatrix:
					sr, err = t.f.SolveFull(ctx, ccli, b)
				case drift:
					// Snapshot and edit generation must use one consistent
					// matrix/fingerprint pair (State), or a concurrent drift
					// could slide a newer base under these edits.
					st := t.f.State()
					edits := synthetic.DriftLower(rng, st.Cur, t.wf, cfg.driftEdits, 0.3)
					if len(edits) == 0 || st.Fp == "" {
						// The structure admits no drift (or was never
						// registered): plain recurring request.
						sr, err = t.f.Solve(ctx, ccli, b)
					} else {
						attempted = true
						sr, fellBack, err = t.f.Drift(ctx, ccli, st, edits, b)
					}
				default:
					sr, err = t.f.Solve(ctx, ccli, b)
				}
				lat := time.Since(t0)
				mu.Lock()
				var trep *tenantRunReport
				if rep.perTenant != nil {
					trep = rep.perTenant[tag.name]
					if trep == nil {
						trep = &tenantRunReport{class: tag.class}
						rep.perTenant[tag.name] = trep
					}
				}
				var ae *client.APIError
				switch {
				case err == nil:
					if len(sr.X)+len(sr.X64) != cfg.batch {
						rep.failed++
						if trep != nil {
							trep.failed++
						}
						if rep.failMsg == "" {
							rep.failMsg = fmt.Sprintf("200 with %d solutions, want %d", len(sr.X)+len(sr.X64), cfg.batch)
						}
					} else {
						rep.ok++
						rep.latencies = append(rep.latencies, lat)
						if trep != nil {
							trep.ok++
							trep.latencies = append(trep.latencies, lat)
						}
						if attempted {
							rep.drifted++
							if fellBack {
								rep.driftFell++
							}
						}
					}
				case errors.As(err, &ae) && ae.Overloaded():
					rep.refused++
					if trep != nil {
						trep.refused++
					}
				default:
					rep.failed++
					if trep != nil {
						trep.failed++
					}
					if rep.failMsg == "" {
						rep.failMsg = err.Error()
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	rep.elapsed = time.Since(start)
	sort.Slice(rep.latencies, func(i, j int) bool { return rep.latencies[i] < rep.latencies[j] })
	for _, trep := range rep.perTenant {
		lat := trep.latencies
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	}

	// Deltas need both snapshots from one kind of target.
	if after, ok := fetchStats(cli); ok && beforeOK && (after.front == nil) == (before.front == nil) {
		rep.fromStats(before, after)
	}
	if cfg.trace {
		if stages, dropped, ok := fetchTraces(cli, cfg.requests); ok {
			rep.stageMs = stages
			rep.traceDropped = dropped
		}
	}
	return rep, nil
}

// fromStats records the run's deltas between two /v1/stats replies of
// one target.
func (rep *loadgenReport) fromStats(b, a targetStats) {
	if a.front != nil {
		rep.front = &router.StatsResponse{
			Requests:   a.front.Requests - b.front.Requests,
			Retries:    a.front.Retries - b.front.Retries,
			Failures:   a.front.Failures - b.front.Failures,
			RouteKinds: make(map[string]uint64, len(a.front.RouteKinds)),
		}
		for kind, n := range a.front.RouteKinds {
			if d := n - b.front.RouteKinds[kind]; d > 0 {
				rep.front.RouteKinds[kind] = d
			}
		}
		return
	}
	before, after := b.server, a.server
	rep.statsOK = true
	rep.tenantStats = after.Tenants
	rep.planCache = after.PlanCache
	rep.planCache.Hits -= before.PlanCache.Hits
	rep.planCache.Coalesced -= before.PlanCache.Coalesced
	rep.planCache.Misses -= before.PlanCache.Misses
	rep.planCache.Evictions -= before.PlanCache.Evictions
	rep.shed = after.Shed - before.Shed
	rep.repairs = after.Delta.Repairs - before.Delta.Repairs
	rep.repairFalls = after.Delta.Fallbacks - before.Delta.Fallbacks
	rep.plannerKind = after.Planner.Kind
	rep.procs = after.Planner.Procs
	// Like the other server counters, report this run's delta — a
	// long-running server's lifetime decision counts would
	// misattribute earlier traffic to this run.
	rep.plannerCounts = make(map[string]uint64, len(after.Planner.Counts))
	for name, n := range after.Planner.Counts {
		if d := n - before.Planner.Counts[name]; d > 0 {
			rep.plannerCounts[name] = d
		}
	}
	rep.superPlans = after.Supernode.FusedPlans - before.Supernode.FusedPlans
	rep.superRows = after.Supernode.Rows - before.Supernode.Rows
	rep.superFusedRows = after.Supernode.FusedRows - before.Supernode.FusedRows
	rep.superMaxWidth = after.Supernode.MaxWidth
}

// randomBatch draws k right-hand sides of length n. Requests carry them
// in B; the JSON poster packs them to b_b64 at encode time (recurring
// numeric traffic has no business re-parsing decimal floats on every
// request) and the binary poster writes them straight into the frame.
func randomBatch(rng *rand.Rand, k, n int) [][]float64 {
	bs := make([][]float64, k)
	for j := range bs {
		row := make([]float64, n)
		for i := range row {
			row[i] = rng.Float64()
		}
		bs[j] = row
	}
	return bs
}

// report prints a finished run's report; a failed request fails the
// command.
func report(w io.Writer, rep *loadgenReport, err error, batch int) error {
	if err != nil {
		return err
	}
	printLoadgenReport(w, rep, batch)
	if rep.failed > 0 {
		return fmt.Errorf("loadgen: %d requests failed (e.g. %s)", rep.failed, rep.failMsg)
	}
	return nil
}

// printLoadgenReport renders the report in the serve/loadgen output style.
func printLoadgenReport(w io.Writer, rep *loadgenReport, batch int) {
	fmt.Fprintf(w, "  wall %8.1f ms, %8.0f solves/s (%d ok, %d refused, %d failed)\n",
		rep.elapsed.Seconds()*1e3, rep.throughput(batch), rep.ok, rep.refused, rep.failed)
	if len(rep.latencies) > 0 {
		fmt.Fprintf(w, "  latency: p50 %s  p90 %s  p99 %s  max %s\n",
			pct(rep.latencies, 0.50).Round(time.Microsecond),
			pct(rep.latencies, 0.90).Round(time.Microsecond),
			pct(rep.latencies, 0.99).Round(time.Microsecond),
			rep.latencies[len(rep.latencies)-1].Round(time.Microsecond))
	}
	if rep.drifted > 0 {
		fmt.Fprintf(w, "  drift: %d drifted requests (%d fell back to a full ship)\n", rep.drifted, rep.driftFell)
	}
	if f := rep.front; f != nil {
		fmt.Fprintf(w, "  front door: %d requests, %d retries, %d failures; routes %s\n",
			f.Requests, f.Retries, f.Failures, formatCounts(f.RouteKinds))
	}
	if rep.statsOK {
		pc := rep.planCache
		fmt.Fprintf(w, "  server: %d procs/plan, %d shed\n", rep.procs, rep.shed)
		fmt.Fprintf(w, "  plan cache: %d hits, %d coalesced, %d misses, %d evictions (hit rate %.1f%%, %d resident)\n",
			pc.Hits, pc.Coalesced, pc.Misses, pc.Evictions, 100*pc.HitRate(), pc.Resident)
		if rep.repairs+rep.repairFalls > 0 {
			fmt.Fprintf(w, "  delta: %d plan misses repaired from a resident ancestor, %d rebuilt (cone/planner fallback)\n",
				rep.repairs, rep.repairFalls)
		}
		if len(rep.plannerCounts) > 0 {
			fmt.Fprintf(w, "  planner: kind=%s decisions: %s\n", rep.plannerKind, formatCounts(rep.plannerCounts))
		}
		if rep.superPlans > 0 {
			fmt.Fprintf(w, "  supernode: %d fused plans (%d of %d rows fused, max width %d)\n",
				rep.superPlans, rep.superFusedRows, rep.superRows, rep.superMaxWidth)
		}
	}
	printTenantTable(w, rep)
	printStageTable(w, rep)
}

// printTenantTable renders the -tenants adversarial-mix breakdown: the
// client-side view (ok/refused and latency percentiles per tenant) plus
// the server's own per-tenant shed counts when /v1/stats was reachable.
func printTenantTable(w io.Writer, rep *loadgenReport) {
	if len(rep.perTenant) == 0 {
		return
	}
	names := make([]string, 0, len(rep.perTenant))
	for name := range rep.perTenant {
		names = append(names, name)
	}
	sort.Strings(names)
	shed := make(map[string]uint64, len(rep.tenantStats))
	for _, ts := range rep.tenantStats {
		shed[ts.Name] = ts.Shed
	}
	fmt.Fprintf(w, "  tenants:\n")
	fmt.Fprintf(w, "    %-10s %-8s %6s %8s %8s %10s %10s\n", "tenant", "class", "ok", "refused", "failed", "p50", "p99")
	for _, name := range names {
		t := rep.perTenant[name]
		shedNote := ""
		if n, known := shed[name]; known && rep.statsOK {
			shedNote = fmt.Sprintf("  (server shed %d)", n)
		}
		fmt.Fprintf(w, "    %-10s %-8s %6d %8d %8d %10s %10s%s\n",
			name, t.class, t.ok, t.refused, t.failed,
			pct(t.latencies, 0.50).Round(time.Microsecond),
			pct(t.latencies, 0.99).Round(time.Microsecond), shedNote)
	}
}

// printStageTable renders the per-stage server-side latency percentiles
// collected from /v1/trace under -trace, in pipeline order.
func printStageTable(w io.Writer, rep *loadgenReport) {
	if len(rep.stageMs) == 0 {
		return
	}
	fmt.Fprintf(w, "  stages (server-side, from /v1/trace):\n")
	fmt.Fprintf(w, "    %-10s %10s %10s %10s %10s\n", "stage", "p50", "p90", "p99", "max")
	for i := 0; i < obs.NumStages; i++ {
		name := obs.Stage(i).String()
		ms := rep.stageMs[name]
		if len(ms) == 0 {
			continue
		}
		sort.Float64s(ms)
		fmt.Fprintf(w, "    %-10s %8.3fms %8.3fms %8.3fms %8.3fms\n", name,
			pct(ms, 0.50), pct(ms, 0.90), pct(ms, 0.99), ms[len(ms)-1])
	}
	if rep.traceDropped > 0 {
		fmt.Fprintf(w, "    (%d traces dropped by the server's ring under contention)\n", rep.traceDropped)
	}
}

// formatCounts renders counts sorted by name, e.g. plan builds per
// strategy as "pooled:5 sequential:2".
func formatCounts(counts map[string]uint64) string {
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s:%d", name, counts[name]))
	}
	return strings.Join(parts, " ")
}
