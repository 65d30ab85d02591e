package main

import (
	"context"
	"math/rand"
	"time"

	"doconsider/internal/arena"
	"doconsider/internal/executor"
	"doconsider/internal/planner"
	"doconsider/internal/schedule"
	"doconsider/internal/sparse"
	"doconsider/internal/supernode"
	"doconsider/internal/synthetic"
	"doconsider/internal/trisolve"
	"doconsider/internal/wavefront"
)

// Probes: after the traced loop the bench calls each layer's public
// functions on the workload's own factors and reports the median call
// time. Values are normalised per edge, row or nonzero where the layer's
// cost scales that way and combined across factors by geometric mean, so
// a metric means the same on a 1 000-row factor and a 40 000-row one.

const probeEdits = 8

// pinnedKinds are the executor kinds a plan can be pinned to, with the
// metric suffix each reports under.
var pinnedKinds = []executor.Kind{
	executor.Sequential, executor.Pooled, executor.DoAcross,
	executor.SelfExecuting, executor.PreScheduled,
}

// samples accumulates one metric's per-factor values.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// passTime is the median time of one batched pass on a plan built with
// opts, and the plan's own description.
func passTime(l *sparse.CSR, xs, bs [][]float64, budget time.Duration, opts ...trisolve.Option) (ns float64, plan *trisolve.Plan, err error) {
	plan, err = trisolve.NewPlan(l, true, opts...)
	if err != nil {
		return 0, nil, err
	}
	solver := plan.Bind()
	ctx := context.Background()
	var serr error
	ns, _ = probe(budget, func() {
		if _, e := solver.Solve(ctx, xs, bs); e != nil {
			serr = e
		}
	})
	if cerr := plan.Close(); serr == nil {
		serr = cerr
	}
	return ns, plan, serr
}

// probeFactors runs every library-layer probe on each factor and sets
// the executor, planner, supernode, wavefront, schedule, trisolve, delta,
// sparse and arena metrics.
func probeFactors(lm layerMetrics, factors []*sparse.CSR, batch, procs int, budget time.Duration) error {
	s := samples{}
	rng := rand.New(rand.NewSource(1))
	calibrated := planner.Calibrate()
	agree, fusedRows, rowsTotal := 0, 0, 0
	for _, l := range factors {
		n, nnz := float64(l.N), float64(l.NNZ())
		bs := make([][]float64, batch)
		xs := make([][]float64, batch)
		for j := range bs {
			bs[j] = make([]float64, l.N)
			xs[j] = make([]float64, l.N)
			for i := range bs[j] {
				bs[j][i] = rng.Float64()
			}
		}

		// Inspector pieces, bottom up.
		var deps *wavefront.Deps
		t, _ := probe(budget, func() { deps = wavefront.FromLower(l) })
		edges := float64(deps.Edges())
		s.add("wavefront.deps_ns_per_edge", t/edges)
		var wf []int32
		var werr error
		t, _ = probe(budget, func() { wf, werr = wavefront.Compute(deps) })
		if werr != nil {
			return werr
		}
		s.add("wavefront.compute_ns_per_edge", t/edges)
		t, _ = probe(budget, func() { schedule.Global(wf, procs) })
		s.add("schedule.global_ns_per_row", t/n)
		var feats planner.Features
		t, _ = probe(budget, func() { feats = planner.Analyze(deps, wf, procs) })
		s.add("planner.analyze_ns_per_edge", t/edges)
		t, _ = probe(budget, func() { planner.Select(feats, planner.Default()) })
		s.add("planner.select_ns", t)
		var part *supernode.Partition
		t, _ = probe(budget, func() { part = supernode.Detect(deps, supernode.Config{}) })
		s.add("supernode.detect_ns_per_edge", t/edges)
		t, _ = probe(budget, func() { l.ContentFingerprint() })
		s.add("sparse.fingerprint_ns_per_nnz", t/nnz)

		// A drifted version of the factor, for the edit and repair paths.
		edits := synthetic.DriftLower(rng, l, wf, probeEdits, 0.3)
		var drifted *sparse.CSR
		if len(edits) > 0 {
			var aerr error
			t, _ = probe(budget, func() { drifted, aerr = l.ApplyRowEdits(edits) })
			if aerr != nil {
				return aerr
			}
			s.add("sparse.apply_edits_us", t/1e3)
			rows := editedRows(edits)
			ddeps := wavefront.FromLower(drifted)
			t, _ = probe(budget, func() { supernode.Resplice(part, ddeps, rows) })
			s.add("supernode.resplice_us", t/1e3)
			if err := probeRepair(s, l, drifted, rows, procs, budget); err != nil {
				return err
			}
		}

		// The plan the planner chooses, its cache and bind costs.
		var perr error
		t, _ = probe(budget, func() {
			p, err := trisolve.NewPlan(l, true, trisolve.WithProcs(procs))
			if err != nil {
				perr = err
				return
			}
			perr = p.Close()
		})
		if perr != nil {
			return perr
		}
		s.add("trisolve.newplan_ms", t/1e6)
		pc := trisolve.NewPlanCache(0)
		warm, err := pc.Get(l, true, trisolve.WithProcs(procs))
		if err != nil {
			return err
		}
		t, _ = probe(budget, func() {
			p, err := pc.Get(l, true, trisolve.WithProcs(procs))
			if err != nil {
				perr = err
				return
			}
			perr = p.Close()
		})
		if perr != nil {
			return perr
		}
		s.add("trisolve.cache_hit_ns", t)
		t, _ = probe(budget, func() { warm.Bind() })
		s.add("trisolve.bind_us", t/1e3)
		if err := warm.Close(); err != nil {
			return err
		}
		if err := pc.Close(); err != nil {
			return err
		}

		// Pass times: the chosen plan, the plain loop, each pinned kind.
		chosen, plan, err := passTime(l, xs, bs, budget, trisolve.WithProcs(procs))
		if err != nil {
			return err
		}
		rowRHS := n * float64(batch)
		s.add("executor.ns_per_row", chosen/rowRHS)
		s.add("executor.ns_per_level", chosen/float64(plan.Phases()))
		seq, _ := probe(budget, func() {
			for j := range bs {
				if err := trisolve.ForwardSeq(l, xs[j], bs[j]); err != nil {
					perr = err
				}
			}
		})
		if perr != nil {
			return perr
		}
		s.add("executor.seq_ns_per_row", seq/rowRHS)
		s.add("executor.speedup_vs_seq", seq/chosen)
		best := 0.0
		for _, kind := range pinnedKinds {
			t, _, err := passTime(l, xs, bs, budget, trisolve.WithProcs(procs), trisolve.WithKind(kind))
			if err != nil {
				return err
			}
			s.add("executor.kind."+kind.String()+"_ns_per_row", t/rowRHS)
			if best == 0 || t < best {
				best = t
			}
		}
		// Regret is at least 1 by definition; two runs of the same plan
		// can still time a hair apart.
		if regret := chosen / best; regret > 1 {
			s.add("planner.regret", regret)
		} else {
			s.add("planner.regret", 1)
		}
		if d := plan.Decision; d != nil {
			one, _, err := passTime(l, xs[:1], bs[:1], budget, trisolve.WithProcs(procs))
			if err != nil {
				return err
			}
			pred := map[executor.Kind]float64{
				executor.Sequential: d.PredSequential,
				executor.Pooled:     d.PredPooled,
				executor.DoAcross:   d.PredDoAcross,
			}[d.Strategy]
			if d.Fused {
				pred = d.PredSupernodal
			}
			if pred > 0 {
				diff := pred*1e9 - one
				if diff < 0 {
					diff = -diff
				}
				s.add("planner.pred_err", diff/one)
			}
		}

		// Fusion: forced on against forced off, same executor choice.
		on, fplan, err := passTime(l, xs, bs, budget, trisolve.WithProcs(procs), trisolve.WithFusion(trisolve.FuseForce))
		if err != nil {
			return err
		}
		off, _, err := passTime(l, xs, bs, budget, trisolve.WithProcs(procs), trisolve.WithFusion(trisolve.FuseOff))
		if err != nil {
			return err
		}
		s.add("supernode.fused_speedup", off/on)
		rowsTotal += l.N
		if fs := fplan.Fusion(); fs != nil {
			fusedRows += fs.FusedRows
		}

		// Would a model calibrated on this host, now, decide the same?
		same, err := sameDecision(l, procs, calibrated)
		if err != nil {
			return err
		}
		if same {
			agree++
		}
	}

	nf := len(factors)
	for name, vs := range s {
		lm.set(name, geomean(vs), nf)
	}
	lm.set("supernode.fused_row_frac", float64(fusedRows)/float64(rowsTotal), nf)
	lm.set("planner.calibrated_agrees", float64(agree)/float64(nf), nf)

	pool := arena.NewPool(arena.Config{})
	const gets = 64
	t, c := probe(budget, func() {
		for i := 0; i < gets; i++ {
			pool.Get().Release()
		}
	})
	lm.set("arena.get_release_ns", t/gets, c*gets)
	return nil
}

// probeRepair prices a hinted delta repair of drifted against the full
// inspection of base, from the plan cache's own BuildStats. Each round
// needs a fresh cache: a second lookup of either structure would hit.
func probeRepair(s samples, base, drifted *sparse.CSR, rows []int32, procs int, budget time.Duration) error {
	var repair, inspect []float64
	start := time.Now()
	for len(inspect) < 200 && (len(inspect) < 3 || time.Since(start) < budget) {
		pc := trisolve.NewPlanCache(0)
		var cold, near trisolve.BuildStats
		p0, err := pc.Get(base, true, trisolve.WithProcs(procs), trisolve.WithBuildStats(&cold))
		if err != nil {
			return err
		}
		p1, err := pc.Get(drifted, true, trisolve.WithProcs(procs), trisolve.WithBuildStats(&near),
			trisolve.WithDriftHint(base.StructureFingerprint(), rows))
		if err != nil {
			return err
		}
		inspect = append(inspect, float64(cold.InspectNs))
		if near.Repaired {
			repair = append(repair, float64(near.RepairNs))
		}
		for _, c := range []interface{ Close() error }{p1, p0, pc} {
			if err := c.Close(); err != nil {
				return err
			}
		}
	}
	s.add("delta.inspect_us", median(inspect)/1e3)
	if len(repair) > 0 {
		s.add("delta.repair_us", median(repair)/1e3)
		s.add("delta.repair_speedup", median(inspect)/median(repair))
	}
	return nil
}

// sameDecision reports whether model picks the same strategy and fusion
// for l as the canonical default constants do.
func sameDecision(l *sparse.CSR, procs int, model *planner.CostModel) (bool, error) {
	a, err := trisolve.NewPlan(l, true, trisolve.WithProcs(procs), trisolve.WithModel(planner.Default()))
	if err != nil {
		return false, err
	}
	b, err := trisolve.NewPlan(l, true, trisolve.WithProcs(procs), trisolve.WithModel(model))
	if err != nil {
		a.Close()
		return false, err
	}
	same := a.Kind == b.Kind && (a.Fusion() != nil) == (b.Fusion() != nil)
	if err := a.Close(); err != nil {
		b.Close()
		return false, err
	}
	return same, b.Close()
}
