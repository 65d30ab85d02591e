package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync/atomic"
	"time"

	"doconsider/client"
	"doconsider/internal/router"
	"doconsider/internal/server"
	"doconsider/internal/sparse"
	"doconsider/internal/synthetic"
	"doconsider/internal/wavefront"
)

// The four serving workloads: closed-loop clients, each on its own
// keep-alive connection, driving a server (or a two-replica cluster
// behind the front door) over real loopback HTTP from this process.

const (
	serveBatch     = 4
	serveEdits     = 4
	coalesceWindow = 2 * time.Millisecond
	hopEvery       = 8 // traced cluster run: re-send every 8th request direct
)

var serveProblems = []string{"SPE2", "SPE5", "5-PT", "9-PT", "7-PT"}

type servingConfig struct {
	wire      client.Wire
	driftFrac float64 // share of ops that are base_fp+edits drift requests
	cluster   bool    // 2 replicas behind the router, clients tenant-tagged
}

var servingConfigs = map[string]servingConfig{
	"serve_warm_binary": {wire: client.WireBinary},
	"serve_warm_json":   {wire: client.WireJSON},
	"serve_drift":       {wire: client.WireBinary, driftFrac: 0.30},
	"cluster_route":     {wire: client.WireBinary, cluster: true},
}

type servOp struct {
	factor int
	offs   []int32
	edits  []sparse.RowEdit // non-nil: a drift request
}

// countingTransport counts the 404s a client sees: each is a factor the
// server no longer held, answered by a full-matrix fallback.
type countingTransport struct {
	rt      *http.Transport
	notHeld atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.rt.RoundTrip(r)
	if err == nil && resp.StatusCode == http.StatusNotFound {
		t.notHeld.Add(1)
	}
	return resp, err
}

// servClient is one closed-loop caller. It owns its factor handles, so
// its drift chains — and therefore the oracle's view of each factor —
// do not depend on how the clients interleave.
type servClient struct {
	cli     *client.Client
	tr      *countingTransport
	factors []*client.Factor
	seq     []servOp
	next    int
	bs      [][]float64
	or      oracle
	// Traced cluster run: latencies of the requests sent both ways.
	routed, direct []float64
}

type serving struct {
	cfg     servingConfig
	servers []*server.Server // the one server, or the cluster's replicas
	addrs   []string         // their addresses, same order
	cluster *router.Cluster
	base    []*sparse.CSR
	pool    *rhsPool
	cs      []*servClient
	procs   int
	owner   []int // traced cluster run: replica index holding base factor i
	directs []*client.Client
	// side carries the bench's own traffic — /v1/stats reads and the
	// direct legs — so it never shares a connection with a timed client.
	side     *http.Transport
	marked   servStats
	markedRt router.StatsResponse
	markedNF int64
}

func newServing(cfg servingConfig, seed int64, procs, nclients, ops int, traced bool, corrupt func([][]float64)) (_ *serving, err error) {
	s := &serving{cfg: cfg, procs: procs, side: &http.Transport{MaxIdleConnsPerHost: nclients}}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if s.base, err = stencilFactors(serveProblems); err != nil {
		return nil, err
	}
	scfg := server.Config{
		Procs:            procs,
		Coalesce:         server.CoalesceConfig{Window: coalesceWindow},
		TraceSampleEvery: -1,
	}
	if traced {
		scfg.TraceSampleEvery = 1
	}
	var baseURL string
	if cfg.cluster {
		if s.cluster, err = router.NewCluster(2, scfg, router.Config{}, "127.0.0.1:0"); err != nil {
			return nil, err
		}
		baseURL = s.cluster.URL()
		s.addrs = s.cluster.Addrs()
		sort.Strings(s.addrs)
		for _, a := range s.addrs {
			s.servers = append(s.servers, s.cluster.Server(a))
		}
	} else {
		srv, err := server.New(scfg)
		if err != nil {
			return nil, err
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			return nil, err
		}
		s.servers, s.addrs = []*server.Server{srv}, []string{srv.Addr()}
		baseURL = "http://" + srv.Addr()
	}

	maxN := 0
	for _, l := range s.base {
		if l.N > maxN {
			maxN = l.N
		}
	}
	s.pool = newRHSPool(rand.New(rand.NewSource(seed-1)), maxN)
	for c := 0; c < nclients; c++ {
		rng := rand.New(rand.NewSource(seed + int64(c)))
		tr := &countingTransport{rt: &http.Transport{MaxIdleConnsPerHost: 1}}
		cli := client.New(baseURL, client.WithWire(cfg.wire),
			client.WithHTTPClient(&http.Client{Transport: tr, Timeout: 30 * time.Second}))
		if cfg.cluster {
			if c == 0 {
				cli = cli.ForTenant("lat-0", "latency")
			} else {
				cli = cli.ForTenant(fmt.Sprintf("batch-%d", c), "")
			}
		}
		sc := &servClient{cli: cli, tr: tr, or: oracle{corrupt: corrupt}}
		for _, l := range s.base {
			sc.factors = append(sc.factors, client.NewFactor(l, true))
		}
		if sc.seq, err = genServOps(rng, s.base, ops, cfg.driftFrac); err != nil {
			return nil, err
		}
		s.cs = append(s.cs, sc)
	}

	// Registration: every client ships each factor whole once and keeps
	// the fingerprint; everything after goes by fingerprint.
	ctx := context.Background()
	reg := rand.New(rand.NewSource(seed - 2))
	for _, sc := range s.cs {
		for fi, f := range sc.factors {
			sc.bs = s.pool.batch(sc.bs, drawOffsets(reg, serveBatch), f.N())
			resp, err := f.Solve(ctx, sc.cli, sc.bs)
			if err != nil {
				return nil, fmt.Errorf("bench: registering factor %d: %w", fi, err)
			}
			xs, err := resp.Solutions()
			if err != nil {
				return nil, err
			}
			if err := sc.or.verify(s.base[fi], xs, sc.bs); err != nil {
				return nil, fmt.Errorf("bench: registering factor %d: oracle: %w", fi, err)
			}
		}
	}
	if cfg.cluster && traced {
		if err := s.findOwners(ctx); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// genServOps draws one client's whole request sequence: the factors in
// equal shares and driftFrac of the ops drifting (see mixBlock), with the
// edits of every drift generated against the chain as it will stand when
// the op runs.
func genServOps(rng *rand.Rand, base []*sparse.CSR, ops int, driftFrac float64) ([]servOp, error) {
	order, drift := make([]int, ops), make([]bool, ops)
	for i := range order {
		order[i] = i % len(base)
		drift[i] = float64(i%mixBlock) < driftFrac*mixBlock
	}
	blockShuffle(rng, order)
	blockShuffle(rng, drift)
	cur := append([]*sparse.CSR(nil), base...)
	// Level-compatible drift leaves a factor's wavefronts as they were, so
	// the base factor's serve for its whole chain (cmd/loops loadgen does
	// the same).
	wfs := make([][]int32, len(base))
	for i, l := range base {
		wf, err := wavefront.Compute(wavefront.FromLower(l))
		if err != nil {
			return nil, err
		}
		wfs[i] = wf
	}
	seq := make([]servOp, ops)
	for i := range seq {
		fi := order[i]
		seq[i] = servOp{factor: fi, offs: drawOffsets(rng, serveBatch)}
		if !drift[i] {
			continue
		}
		edits := synthetic.DriftLower(rng, cur[fi], wfs[fi], serveEdits, 0.3)
		if len(edits) == 0 {
			return nil, fmt.Errorf("bench: factor %d admits no drift at op %d", fi, i)
		}
		next, err := cur[fi].ApplyRowEdits(edits)
		if err != nil {
			return nil, err
		}
		seq[i].edits, cur[fi] = edits, next
	}
	return seq, nil
}

// findOwners learns which replica holds each base factor by asking each
// one for it by fingerprint: the replicas that never saw it answer 404.
func (s *serving) findOwners(ctx context.Context) error {
	for _, a := range s.addrs {
		s.directs = append(s.directs, client.New("http://"+a, client.WithWire(s.cfg.wire),
			client.WithHTTPClient(&http.Client{Transport: s.side, Timeout: 30 * time.Second})))
	}
	s.owner = make([]int, len(s.base))
	sc, lower := s.cs[0], true
	for fi, f := range sc.factors {
		s.owner[fi] = -1
		sc.bs = s.pool.batch(sc.bs, make([]int32, serveBatch), f.N())
		for ri, dc := range s.directs {
			_, err := dc.Do(ctx, &client.Request{Fp: f.Fp(), Lower: &lower, B: sc.bs})
			if err == nil {
				s.owner[fi] = ri
			} else if client.StatusOf(err) != http.StatusNotFound {
				return fmt.Errorf("bench: locating factor %d: %w", fi, err)
			}
		}
		if s.owner[fi] < 0 {
			return fmt.Errorf("bench: no replica holds factor %d", fi)
		}
	}
	return nil
}

func (s *serving) clients() int { return len(s.cs) }

func (s *serving) digest() string {
	d := newDigest()
	for _, sc := range s.cs {
		for _, op := range sc.seq {
			d.add(int64(op.factor))
			d.addOffsets(op.offs)
			d.addEdits(op.edits)
		}
	}
	return d.String()
}

func classify(err error) opStatus {
	var ae *client.APIError
	if errors.As(err, &ae) && ae.Overloaded() {
		return opRefused
	}
	return opFailed
}

func (s *serving) do(c int, verify bool, sp *spanLog) opResult {
	sc := s.cs[c]
	op := sc.seq[sc.next]
	sc.next++
	f := sc.factors[op.factor]
	st := f.State()
	sc.bs = s.pool.batch(sc.bs, op.offs, st.Cur.N)
	ctx := context.Background()
	root := sp.begin(rootSpan, -1)
	defer sp.end(root)

	call := sp.begin("client.solve", root)
	t0 := time.Now()
	var resp *client.Response
	var err error
	if op.edits != nil {
		resp, _, err = f.Drift(ctx, sc.cli, st, op.edits, sc.bs)
	} else {
		resp, err = f.Solve(ctx, sc.cli, sc.bs)
	}
	var xs [][]float64
	if err == nil {
		xs, err = resp.Solutions()
	}
	lat := time.Since(t0)
	sp.end(call)
	if err != nil {
		return opResult{status: classify(err), err: err}
	}
	if len(xs) != serveBatch {
		return opResult{status: opFailed, err: fmt.Errorf("200 with %d solutions, want %d", len(xs), serveBatch)}
	}
	if verify {
		v := sp.begin("oracle.verify", root)
		err := sc.or.verify(f.State().Cur, xs, sc.bs)
		sp.end(v)
		if err != nil {
			return opResult{status: opFailed, err: fmt.Errorf("oracle: factor %d: %w", op.factor, err)}
		}
	}
	if sp != nil && s.owner != nil && sc.next%hopEvery == 0 {
		// The same request again, straight to the replica that holds the
		// factor: the pair prices the front door's hop.
		lower := true
		h := sp.begin("client.direct", root)
		t1 := time.Now()
		_, err := s.directs[s.owner[op.factor]].Do(ctx, &client.Request{Fp: f.Fp(), Lower: &lower, B: sc.bs})
		direct := time.Since(t1)
		sp.end(h)
		if err != nil {
			return opResult{status: classify(err), err: fmt.Errorf("direct leg: %w", err)}
		}
		sc.routed = append(sc.routed, float64(lat))
		sc.direct = append(sc.direct, float64(direct))
	}
	return opResult{status: opOK, lat: lat}
}

// servStats is the sum over the workload's servers of the /v1/stats
// fields the per-layer pass reads.
type servStats struct {
	stageCount, stageSec map[string]float64
	coalesce             server.CoalesceStats
	plan, factor         struct{ hits, misses, evictions uint64 }
	shed                 uint64
	arenaGrows           uint64
	arenaOutstanding     int
	repairs, fallbacks   uint64
	coneRows             uint64
	chosen               map[string]uint64
	fusedPlans           uint64
}

// stats reads /v1/stats from every server over HTTP, as an operator
// would.
func (s *serving) stats() (servStats, error) {
	out := servStats{stageCount: map[string]float64{}, stageSec: map[string]float64{}, chosen: map[string]uint64{}}
	for _, a := range s.addrs {
		st, err := client.New("http://"+a, client.WithHTTPClient(&http.Client{Transport: s.side})).Stats(context.Background())
		if err != nil {
			return out, fmt.Errorf("bench: /v1/stats of %s: %w", a, err)
		}
		for _, sg := range st.Stages {
			out.stageCount[sg.Stage] += float64(sg.Count)
			out.stageSec[sg.Stage] += sg.TotalSeconds
		}
		out.coalesce.Requests += st.Coalesce.Requests
		out.coalesce.Passes += st.Coalesce.Passes
		out.coalesce.Fused += st.Coalesce.Fused
		out.plan.hits += st.PlanCache.Hits
		out.plan.misses += st.PlanCache.Misses + st.PlanCache.Coalesced
		out.plan.evictions += st.PlanCache.Evictions
		out.factor.hits += st.FactorCache.Hits
		out.factor.misses += st.FactorCache.Misses + st.FactorCache.Coalesced
		out.factor.evictions += st.FactorCache.Evictions
		out.shed += st.Shed
		out.arenaGrows += st.Arena.Grows
		out.arenaOutstanding += st.Arena.Outstanding
		out.repairs += st.Delta.Repairs
		out.fallbacks += st.Delta.Fallbacks
		out.coneRows += st.Delta.ConeRows
		for kind, n := range st.Planner.Counts {
			out.chosen[kind] += n
		}
		out.fusedPlans += st.Supernode.FusedPlans
	}
	return out, nil
}

func (s *serving) notHeld() int64 {
	var n int64
	for _, sc := range s.cs {
		n += sc.tr.notHeld.Load()
	}
	return n
}

func (s *serving) mark() {
	// A failed read leaves zeros; layers() reads again and reports it.
	s.marked, _ = s.stats()
	s.markedNF = s.notHeld()
	if s.cluster != nil {
		s.markedRt = s.cluster.Router().Stats()
	}
}

func rate(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

func (s *serving) layers(lm layerMetrics, tr *tracedLoop, budget time.Duration) error {
	now, err := s.stats()
	if err != nil {
		return err
	}
	was := s.marked

	// server: per-request stage means over the traced loop.
	total, requests := 0.0, 0.0
	for stage, n := range now.stageCount {
		dn := n - was.stageCount[stage]
		if dn <= 0 {
			continue
		}
		meanMs := (now.stageSec[stage] - was.stageSec[stage]) / dn * 1e3
		lm.set("server.stage."+stage+"_ms", meanMs, int(dn))
		total += meanMs
		if dn > requests {
			requests = dn
		}
	}
	lm.set("server.total_ms", total, int(requests))
	co := now.coalesce
	co.Requests -= was.coalesce.Requests
	co.Passes -= was.coalesce.Passes
	co.Fused -= was.coalesce.Fused
	if co.Requests > 0 && co.Passes > 0 {
		lm.set("server.coalesce_rate", float64(co.Fused)/float64(co.Requests), int(co.Requests))
		lm.set("server.pass_width_mean", float64(co.Requests*serveBatch)/float64(co.Passes), int(co.Passes))
	}
	lm.set("server.plan_hit_rate", rate(now.plan.hits-was.plan.hits, now.plan.misses-was.plan.misses), 1)
	lm.set("server.factor_hit_rate", rate(now.factor.hits-was.factor.hits, now.factor.misses-was.factor.misses), 1)
	lm.set("server.plan_evictions", float64(now.plan.evictions-was.plan.evictions), 1)
	lm.set("server.factor_evictions", float64(now.factor.evictions-was.factor.evictions), 1)
	lm.set("server.shed", float64(now.shed-was.shed), 1)
	lm.set("server.arena_grows", float64(now.arenaGrows-was.arenaGrows), 1)
	lm.set("server.arena_outstanding", float64(now.arenaOutstanding), 1)
	lm.set("plancache.hit_rate", rate(now.plan.hits-was.plan.hits, now.plan.misses-was.plan.misses), 1)
	lm.set("plancache.evictions", float64(now.plan.evictions-was.plan.evictions), 1)
	rep, fall := now.repairs-was.repairs, now.fallbacks-was.fallbacks
	if rep+fall > 0 {
		lm.set("delta.repair_frac", float64(rep)/float64(rep+fall), int(rep+fall))
	}
	if rep > 0 {
		lm.set("delta.cone_rows_mean", float64(now.coneRows-was.coneRows)/float64(rep), int(rep))
	}
	chosenLayers(lm, now.chosen, now.fusedPlans)

	// client: what the caller saw beyond what the server accounts for.
	callerMs := 0.0
	for _, d := range tr.seg.lat {
		callerMs += ms(d)
	}
	if len(tr.seg.lat) > 0 {
		callerMs /= float64(len(tr.seg.lat))
	}
	lm.set("client.unattributed_ms", callerMs-total, len(tr.seg.lat))
	lm.set("client.latency_p99_ms", ms(percentile(tr.seg.lat, 0.99)), len(tr.seg.lat))
	lm.set("client.fallbacks", float64(s.notHeld()-s.markedNF), 1)

	if s.cluster != nil {
		rt := s.cluster.Router().Stats()
		lm.set("router.retries", float64(rt.Retries-s.markedRt.Retries), 1)
		lm.set("router.failures", float64(rt.Failures-s.markedRt.Failures), 1)
		lm.set("router.affinity_hits", float64(rt.AffinityHits-s.markedRt.AffinityHits), 1)
		routedBy := map[string]uint64{}
		for _, b := range s.markedRt.Backends {
			routedBy[b.Addr] = b.Routed
		}
		var most, sum float64
		for _, b := range rt.Backends {
			d := float64(b.Routed - routedBy[b.Addr])
			sum += d
			if d > most {
				most = d
			}
		}
		if sum > 0 {
			lm.set("router.shard_skew", most/(sum/float64(len(rt.Backends))), len(rt.Backends))
		}
		var routed, direct []float64
		for _, sc := range s.cs {
			routed, direct = append(routed, sc.routed...), append(direct, sc.direct...)
		}
		if len(routed) > 0 {
			lm.set("router.hop_ms", (median(routed)-median(direct))/1e6, len(routed))
		}
	}

	if err := s.probeWire(lm, budget); err != nil {
		return err
	}
	setWorkPerOp(lm, s.base, serveBatch, 1/float64(len(s.base)))
	return probeFactors(lm, s.base, serveBatch, s.procs, budget)
}

// probeWire prices the client codec, RouteKey and the server's handler
// without a transport, on a by-fingerprint request for factor 0.
func (s *serving) probeWire(lm layerMetrics, budget time.Duration) error {
	sc := s.cs[0]
	f := sc.factors[0]
	lower := true
	sc.bs = s.pool.batch(sc.bs, make([]int32, serveBatch), f.N())
	// On a drifting workload the server may have evicted this factor by
	// now; one ordinary solve ships it again if so.
	if _, err := f.Solve(context.Background(), sc.cli, sc.bs); err != nil {
		return err
	}
	req := &client.Request{Fp: f.Fp(), Lower: &lower, B: sc.bs}
	binaryWire := s.cfg.wire == client.WireBinary

	encode := func() ([]byte, error) {
		if binaryWire {
			return server.EncodeRequestFrame(req)
		}
		// What client.doJSON does: pack the RHS, then marshal.
		r := *req
		r.B64 = make([][]byte, len(r.B))
		for j, row := range r.B {
			r.B64[j] = server.PackFloats(row)
		}
		r.B = nil
		return json.Marshal(&r)
	}
	var body []byte
	var perr error
	t, n := probe(budget, func() { body, perr = encode() })
	if perr != nil {
		return perr
	}
	lm.set("client.encode_us", t/1e3, n)

	var kerr error
	t, n = probe(budget, func() { _, _, kerr = server.RouteKey(body, binaryWire) })
	if kerr != nil {
		return kerr
	}
	lm.set("router.routekey_ns", t, n)

	// The handler of the server that holds the factor.
	holder := s.servers[0]
	if s.owner != nil {
		holder = s.servers[s.owner[0]]
	} else if s.cluster != nil {
		return errors.New("bench: cluster probe needs the traced set-up")
	}
	contentType := "application/json"
	if binaryWire {
		contentType = server.FrameContentType
	}
	var raw []byte
	t, n = probe(budget, func() {
		hr := httptest.NewRequest(http.MethodPost, "/v1/trisolve", bytes.NewReader(body))
		hr.Header.Set("Content-Type", contentType)
		rec := httptest.NewRecorder()
		holder.Handler().ServeHTTP(rec, hr)
		if rec.Code != http.StatusOK {
			perr = fmt.Errorf("bench: handler probe: status %d: %s", rec.Code, rec.Body.String())
		}
		raw = rec.Body.Bytes()
	})
	if perr != nil {
		return perr
	}
	lm.set("server.handler_us", t/1e3, n)

	t, n = probe(budget, func() {
		if binaryWire {
			_, perr = server.DecodeResponseFrame(raw)
			return
		}
		var sr client.Response
		if perr = json.Unmarshal(raw, &sr); perr == nil {
			_, perr = sr.Solutions()
		}
	})
	if perr != nil {
		return perr
	}
	lm.set("client.decode_us", t/1e3, n)
	return nil
}

// leaks is what a closed instance left behind.
type leaks struct {
	arenaOutstanding int
}

func (s *serving) close() (leaks, error) {
	for _, sc := range s.cs {
		sc.tr.rt.CloseIdleConnections()
	}
	s.side.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var err error
	if s.cluster != nil {
		err = s.cluster.Close(ctx)
	} else {
		for _, srv := range s.servers {
			err = srv.Shutdown(ctx)
		}
	}
	var lk leaks
	for _, srv := range s.servers {
		lk.arenaOutstanding += srv.Stats().Arena.Outstanding
	}
	return lk, err
}
