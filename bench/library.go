package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"doconsider/internal/sparse"
	"doconsider/internal/synthetic"
	"doconsider/internal/trisolve"
)

// The two library workloads: one caller, no wire, no server.

const kernelBatch = 4

// kernelLarge: op = one warm-plan batch-4 forward solve over each of the
// three large stencil factors in turn.
type kernelLarge struct {
	procs   int
	factors []*sparse.CSR
	pc      *trisolve.PlanCache
	pool    *rhsPool
	seq     [][]int32 // per op: kernelBatch offsets per factor
	next    int
	xs      [][][]float64 // per factor: the solution vectors
	bs      [][]float64
	or      oracle
	marked  cacheMark
}

// cacheMark snapshots a plan cache's counters at the start of the traced
// loop so the per-layer pass reports deltas.
type cacheMark struct {
	hits, misses, coalesced, evictions uint64
	delta                              trisolve.DeltaStats
}

func markCache(pc *trisolve.PlanCache) cacheMark {
	st := pc.Stats()
	return cacheMark{st.Hits, st.Misses, st.Coalesced, st.Evictions, pc.DeltaStats()}
}

// cacheLayers reports a library workload's plan-cache layer metrics as
// deltas since m.
func cacheLayers(lm layerMetrics, pc *trisolve.PlanCache, m cacheMark) {
	st := pc.Stats()
	hits, misses := st.Hits-m.hits, st.Misses-m.misses+st.Coalesced-m.coalesced
	if hits+misses > 0 {
		lm.set("plancache.hit_rate", float64(hits)/float64(hits+misses), int(hits+misses))
	}
	lm.set("plancache.evictions", float64(st.Evictions-m.evictions), 1)
	ds := pc.DeltaStats()
	rep, fall := ds.Repairs-m.delta.Repairs, ds.Fallbacks-m.delta.Fallbacks
	if rep+fall > 0 {
		lm.set("delta.repair_frac", float64(rep)/float64(rep+fall), int(rep+fall))
	}
	if rep > 0 {
		lm.set("delta.cone_rows_mean", float64(ds.ConeRows-m.delta.ConeRows)/float64(rep), int(rep))
	}
	chosenLayers(lm, pc.DecisionCounts(), pc.SupernodeStats().FusedPlans)
}

// chosenLayers reports what the planner picked for every plan built
// since the set-up began.
func chosenLayers(lm layerMetrics, counts map[string]uint64, fused uint64) {
	for _, kind := range []string{"sequential", "pooled", "doacross"} {
		// The cache files a fused plan under "<kind>+fused".
		lm.set("planner.chosen."+kind, float64(counts[kind]+counts[kind+"+fused"]), 1)
	}
	lm.set("planner.chosen.fused", float64(fused), 1)
}

func newKernelLarge(seed int64, procs, ops int, corrupt func([][]float64)) (*kernelLarge, error) {
	factors, err := stencilFactors([]string{"L5-PT", "L7-PT", "L9-PT"})
	if err != nil {
		return nil, err
	}
	k := &kernelLarge{procs: procs, factors: factors, pc: trisolve.NewPlanCache(0), or: oracle{corrupt: corrupt}}
	rng := rand.New(rand.NewSource(seed))
	maxN := 0
	for _, l := range factors {
		if l.N > maxN {
			maxN = l.N
		}
		xs := make([][]float64, kernelBatch)
		for j := range xs {
			xs[j] = make([]float64, l.N)
		}
		k.xs = append(k.xs, xs)
	}
	k.pool = newRHSPool(rng, maxN)
	k.seq = make([][]int32, ops)
	for i := range k.seq {
		k.seq[i] = drawOffsets(rng, kernelBatch*len(factors))
	}
	return k, nil
}

func (k *kernelLarge) clients() int { return 1 }

func (k *kernelLarge) digest() string {
	d := newDigest()
	for _, offs := range k.seq {
		d.addOffsets(offs)
	}
	return d.String()
}

func (k *kernelLarge) rhs(offs []int32, fi int) [][]float64 {
	k.bs = k.pool.batch(k.bs, offs[fi*kernelBatch:(fi+1)*kernelBatch], k.factors[fi].N)
	return k.bs
}

func (k *kernelLarge) do(_ int, verify bool, sp *spanLog) opResult {
	offs := k.seq[k.next]
	k.next++
	ctx := context.Background()
	root := sp.begin(rootSpan, -1)
	defer sp.end(root)
	t0 := time.Now()
	for fi, l := range k.factors {
		g := sp.begin("trisolve.get", root)
		plan, err := k.pc.Get(l, true, trisolve.WithProcs(k.procs))
		sp.end(g)
		if err != nil {
			return opResult{status: opFailed, err: err}
		}
		b := sp.begin("trisolve.bind", root)
		solver := plan.Bind()
		sp.end(b)
		bs := k.rhs(offs, fi)
		e := sp.begin("executor.pass", root)
		_, err = solver.Solve(ctx, k.xs[fi], bs)
		sp.end(e)
		if cerr := plan.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return opResult{status: opFailed, err: err}
		}
	}
	lat := time.Since(t0)
	if verify {
		v := sp.begin("oracle.verify", root)
		defer sp.end(v)
		for fi, l := range k.factors {
			if err := k.or.verify(l, k.xs[fi], k.rhs(offs, fi)); err != nil {
				return opResult{status: opFailed, err: fmt.Errorf("oracle: factor %d: %w", fi, err)}
			}
		}
	}
	return opResult{status: opOK, lat: lat}
}

func (k *kernelLarge) mark() { k.marked = markCache(k.pc) }

func (k *kernelLarge) layers(lm layerMetrics, tr *tracedLoop, budget time.Duration) error {
	cacheLayers(lm, k.pc, k.marked)
	rows, levels := 0, 0
	for _, l := range k.factors {
		plan, err := k.pc.Get(l, true, trisolve.WithProcs(k.procs))
		if err != nil {
			return err
		}
		rows += l.N * kernelBatch
		levels += plan.Phases()
		if err := plan.Close(); err != nil {
			return err
		}
	}
	// The pass spans of one op cover all three factors.
	if t := tr.totals["executor.pass"]; t != nil && t.count > 0 {
		perOp := float64(t.dur) / float64(tr.seg.ops)
		lm.set("executor.ns_per_row", perOp/float64(rows), t.count)
		lm.set("executor.ns_per_level", perOp/float64(levels), t.count)
	}
	setWorkPerOp(lm, k.factors, kernelBatch, 1)
	return probeFactors(lm, k.factors, kernelBatch, k.procs, budget)
}

func (k *kernelLarge) close() (leaks, error) { return leaks{}, k.pc.Close() }

// setWorkPerOp reports the arithmetic and the computed memory traffic of
// one op that solves batch right-hand sides against each of factors
// (times share, for a workload whose ops pick one factor of several).
func setWorkPerOp(lm layerMetrics, factors []*sparse.CSR, batch int, share float64) {
	flops, bytes := 0.0, 0.0
	for _, l := range factors {
		nnz, n := float64(l.NNZ()), float64(l.N)
		flops += 2 * nnz * float64(batch)
		// rowptr + colidx + val read once, x written and b read per RHS.
		bytes += 4*(n+1) + 12*nnz + 16*n*float64(batch)
	}
	lm.set("executor.flops_per_op", flops*share, 1)
	lm.set("executor.bytes_per_op_computed", bytes*share, 1)
}

// inspectChurn: op = admit the next of 16 synthetic structures into a
// plan cache of 8 (a cold inspection), then drift it three times,
// solving once after each of the four plan acquisitions.
type inspectChurn struct {
	procs  int
	base   []*sparse.CSR
	edits  [][churnSteps][]sparse.RowEdit
	rows   [][churnSteps][]int32
	pc     *trisolve.PlanCache
	pool   *rhsPool
	seq    [][]int32
	next   int
	xs     [][]float64   // one solution per acquisition
	ls     []*sparse.CSR // the factor each was solved against
	bs     [][]float64
	or     oracle
	marked cacheMark
}

const (
	churnStructures = 16
	churnCache      = 8
	churnSteps      = 3
	churnEdits      = 8
)

func newInspectChurn(seed int64, procs, ops int, corrupt func([][]float64)) (*inspectChurn, error) {
	w := &inspectChurn{procs: procs, pc: trisolve.NewPlanCache(churnCache), or: oracle{corrupt: corrupt}}
	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < churnStructures; s++ {
		l, err := syntheticFactor(seed + int64(s))
		if err != nil {
			return nil, err
		}
		w.base = append(w.base, l)
		var edits [churnSteps][]sparse.RowEdit
		var rows [churnSteps][]int32
		cur := l
		for step := range edits {
			edits[step] = synthetic.DriftLower(rng, cur, nil, churnEdits, 0.3)
			if len(edits[step]) == 0 {
				return nil, fmt.Errorf("bench: structure %d admits no drift", s)
			}
			rows[step] = editedRows(edits[step])
			if cur, err = cur.ApplyRowEdits(edits[step]); err != nil {
				return nil, err
			}
		}
		w.edits = append(w.edits, edits)
		w.rows = append(w.rows, rows)
	}
	n := w.base[0].N
	w.pool = newRHSPool(rng, n)
	w.seq = make([][]int32, ops)
	for i := range w.seq {
		w.seq[i] = drawOffsets(rng, 1+churnSteps)
	}
	w.xs = make([][]float64, 1+churnSteps)
	for j := range w.xs {
		w.xs[j] = make([]float64, n)
	}
	w.ls = make([]*sparse.CSR, 1+churnSteps)
	return w, nil
}

func (w *inspectChurn) clients() int { return 1 }

func (w *inspectChurn) digest() string {
	d := newDigest()
	for s := range w.edits {
		for _, e := range w.edits[s] {
			d.addEdits(e)
		}
	}
	for _, offs := range w.seq {
		d.addOffsets(offs)
	}
	return d.String()
}

// acquire leases a plan for l, solves RHS j of the op and releases it.
func (w *inspectChurn) acquire(l *sparse.CSR, j int, offs []int32, sp *spanLog, root int32, opts ...trisolve.Option) error {
	var bst trisolve.BuildStats
	opts = append(opts, trisolve.WithProcs(w.procs), trisolve.WithBuildStats(&bst))
	g := sp.begin("trisolve.get", root)
	plan, err := w.pc.Get(l, true, opts...)
	sp.end(g)
	if err != nil {
		return err
	}
	sp.child("delta.repair", g, bst.RepairNs)
	sp.child("trisolve.inspect", g, bst.InspectNs)
	b := sp.begin("trisolve.bind", root)
	solver := plan.Bind()
	sp.end(b)
	w.bs = w.pool.batch(w.bs, offs[j:j+1], l.N)
	e := sp.begin("executor.pass", root)
	_, err = solver.Solve(context.Background(), w.xs[j:j+1], w.bs)
	sp.end(e)
	w.ls[j] = l
	if cerr := plan.Close(); err == nil {
		err = cerr
	}
	return err
}

func (w *inspectChurn) do(_ int, verify bool, sp *spanLog) opResult {
	s := w.next % churnStructures
	offs := w.seq[w.next]
	w.next++
	root := sp.begin(rootSpan, -1)
	defer sp.end(root)
	t0 := time.Now()
	cur := w.base[s]
	if err := w.acquire(cur, 0, offs, sp, root); err != nil {
		return opResult{status: opFailed, err: err}
	}
	for step := 0; step < churnSteps; step++ {
		a := sp.begin("sparse.apply_edits", root)
		next, err := cur.ApplyRowEdits(w.edits[s][step])
		sp.end(a)
		if err != nil {
			return opResult{status: opFailed, err: err}
		}
		// Steps 1 and 3 tell the cache which rows moved; step 2 does not,
		// so the similarity-index scan has to find the ancestor itself.
		var opts []trisolve.Option
		if step != 1 {
			opts = append(opts, trisolve.WithDriftHint(cur.StructureFingerprint(), w.rows[s][step]))
		}
		if err := w.acquire(next, 1+step, offs, sp, root, opts...); err != nil {
			return opResult{status: opFailed, err: err}
		}
		cur = next
	}
	lat := time.Since(t0)
	if verify {
		v := sp.begin("oracle.verify", root)
		defer sp.end(v)
		for j, l := range w.ls {
			w.bs = w.pool.batch(w.bs, offs[j:j+1], l.N)
			if err := w.or.verify(l, w.xs[j:j+1], w.bs); err != nil {
				return opResult{status: opFailed, err: fmt.Errorf("oracle: acquisition %d: %w", j, err)}
			}
		}
	}
	return opResult{status: opOK, lat: lat}
}

func (w *inspectChurn) mark() { w.marked = markCache(w.pc) }

func (w *inspectChurn) layers(lm layerMetrics, tr *tracedLoop, budget time.Duration) error {
	cacheLayers(lm, w.pc, w.marked)
	if t := tr.totals["executor.pass"]; t != nil && t.count > 0 {
		perPass := float64(t.dur) / float64(t.count)
		lm.set("executor.ns_per_row", perPass/float64(w.base[0].N), t.count)
		plan, err := trisolve.NewPlan(w.base[0], true, trisolve.WithProcs(w.procs))
		if err != nil {
			return err
		}
		lm.set("executor.ns_per_level", perPass/float64(plan.Phases()), t.count)
		if err := plan.Close(); err != nil {
			return err
		}
	}
	// Repair, inspection and edits are what this workload's own loop pays
	// on every op, so its spans stand; the probes price the rest.
	repair, inspect := tr.meanNs("delta.repair"), tr.meanNs("trisolve.inspect")
	lm.set("delta.repair_us", repair/1e3, spanCount(tr, "delta.repair"))
	lm.set("delta.inspect_us", inspect/1e3, spanCount(tr, "trisolve.inspect"))
	if repair > 0 {
		lm.set("delta.repair_speedup", inspect/repair, spanCount(tr, "delta.repair"))
	}
	lm.set("sparse.apply_edits_us", tr.meanNs("sparse.apply_edits")/1e3, spanCount(tr, "sparse.apply_edits"))
	setWorkPerOp(lm, w.base[:1], 1+churnSteps, 1)
	return probeFactors(lm, w.base[:4], 1, w.procs, budget)
}

func spanCount(tr *tracedLoop, name string) int {
	if t := tr.totals[name]; t != nil {
		return t.count
	}
	return 0
}

func (w *inspectChurn) close() (leaks, error) { return leaks{}, w.pc.Close() }
