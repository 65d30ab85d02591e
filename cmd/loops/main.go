// Command loops regenerates the tables and figures of "Run-Time
// Parallelization and Scheduling of Loops" (Saltz, Mirchandaney, Baxter;
// ICASE 88-70 / SPAA 1989) from this repository's reimplementation.
//
// Usage:
//
//	loops <experiment> [flags]
//
// Experiments: summary, fig9, table1, table2, table3, table4, table5,
// fig12, fig13, model, timego, calibrate, numa, gantt, chunks, serve,
// server, router, cluster, loadgen, all.
//
// The serving commands exercise the paper's amortization argument under
// multi-tenant load:
//
//   - server: serve the trisolve HTTP API (internal/server) on a network
//     address, with admission control and /metrics.
//   - router: the distributed tier's front door (internal/router) —
//     consistent-hash solve traffic across -backends replicas with
//     drift-chain affinity and warm plan handoff on rebalance.
//   - cluster: a self-contained multi-replica deployment — N in-process
//     replicas on loopback ports behind a front door on -addr.
//   - loadgen: drive a running server (or front door) with concurrent
//     clients over the recurring problem suite; report throughput,
//     latency percentiles and the server's cache-hit rates. -cluster N
//     spins up an in-process cluster to drive.
//   - serve: the in-process demo — the same server package on a loopback
//     port, driven by the same loadgen.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"doconsider/internal/machine"
	"doconsider/internal/model"
	"doconsider/internal/problems"
	"doconsider/internal/router"
	"doconsider/internal/schedule"
	"doconsider/internal/server"
	"doconsider/internal/tables"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "loops:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("loops", flag.ContinueOnError)
	procs := fs.Int("procs", 0, "processor count (0: the paper's 16 for the simulated experiments, runtime.GOMAXPROCS(0) per plan for serving)")
	iters := fs.Int("iters", 50, "Krylov iterations assumed for Table 1")
	large := fs.Bool("large", false, "include the large problem variants (slow)")
	clients := fs.Int("clients", 8, "serve/loadgen: concurrent client goroutines")
	requests := fs.Int("requests", 64, "serve/loadgen: total solve requests")
	batch := fs.Int("batch", 8, "serve/loadgen: right-hand sides per request")
	cacheCap := fs.Int("cache", 8, "serve/server: plan cache capacity")
	kindName := fs.String("kind", "auto", "serve/server: executor kind, or \"auto\" for adaptive planning")
	seed := fs.Int64("seed", 1989, "serve/loadgen: base RNG seed (client i uses seed+i)")
	addr := fs.String("addr", ":8080", "server: listen address; loadgen: target host:port")
	maxInFlight := fs.Int("max-inflight", 64, "server: admission-control bound on concurrent solves")
	maxBatch := fs.Int("max-batch", 64, "serve/server: max right-hand sides accepted per request")
	reqTimeout := fs.Duration("timeout", 30*time.Second, "server: default per-request deadline; loadgen: client timeout")
	driftRate := fs.Float64("drift-rate", 0, "serve/loadgen: probability a request structurally drifts its problem (base_fp+edits)")
	driftEdits := fs.Int("drift-edits", 4, "serve/loadgen: row edits per drift step")
	wire := fs.String("wire", wireJSON, "loadgen: wire format, json or binary (zero-copy frames)")
	trace := fs.Bool("trace", false, "loadgen: fetch /v1/trace after the run and print per-stage latency percentiles")
	debugAddr := fs.String("debug-addr", "", "server: pprof/runtime debug listener address (empty disables)")
	tenants := fs.Int("tenants", 0, "loadgen: adversarial tenant mix: tenant 0 latency-class, rest flooding batch (0 disables, else >= 2)")
	tenantWeights := fs.String("tenant-weights", "", "server: per-tenant DRR weights, e.g. lat-0=8,batch-1=1 (unlisted tenants weigh 1)")
	tenantQuota := fs.Int("tenant-quota", 0, "server: per-tenant in-flight quota; over-quota requests shed 429 (0 = unlimited)")
	tenantQueue := fs.Int("tenant-queue", 0, "server: per-tenant per-class admission queue depth (0 = default 16, negative sheds immediately)")
	tenantMax := fs.Int("tenant-max", 0, "server: tenant metric-cardinality cap; overflow pools into \"other\" (0 = default 32)")
	backends := fs.String("backends", "", "router: comma-separated replica addresses (host:port)")
	replicas := fs.Int("replicas", 2, "cluster: in-process replica count")
	clusterN := fs.Int("cluster", 0, "loadgen: spin up an in-process N-replica cluster and drive its front door (0 = use -addr)")
	vnodes := fs.Int("vnodes", 0, "router/cluster: virtual nodes per backend (0 = default 64)")
	warmLimit := fs.Int("warm-limit", 0, "router/cluster: hot fingerprints handed off per losing replica on rebalance (0 = default 32)")
	if len(args) == 0 {
		usage(fs)
		return fmt.Errorf("missing experiment name")
	}
	exp := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if err := validateServingFlags(exp, *reqTimeout); err != nil {
		usage(fs)
		return err
	}
	if err := validateDriftFlags(exp, *driftRate, *driftEdits); err != nil {
		usage(fs)
		return err
	}
	if err := validateWireFlag(exp, *wire); err != nil {
		usage(fs)
		return err
	}
	if err := validateTenantsFlag(exp, *tenants); err != nil {
		usage(fs)
		return err
	}
	weights, err := parseTenantWeights(*tenantWeights)
	if err != nil {
		usage(fs)
		return err
	}
	simProcs := *procs
	if simProcs == 0 {
		simProcs = tables.DefaultProcs
	}

	switch exp {
	case "summary":
		tables.FprintSummary(os.Stdout)
	case "fig9":
		return tables.FprintFigure9(os.Stdout, 5, 7, 4)
	case "table1":
		return table1(simProcs, *iters, *large)
	case "table2":
		return solveTable(machine.SelfExecutingSim, simProcs)
	case "table3":
		return solveTable(machine.PreScheduledSim, simProcs)
	case "table4":
		return table4(simProcs)
	case "table5":
		return table5(simProcs)
	case "fig12":
		return fig12(simProcs)
	case "fig13":
		return fig13(simProcs)
	case "model":
		return modelReport(simProcs)
	case "timego":
		return timego(simProcs)
	case "calibrate":
		return calibrate(simProcs)
	case "numa":
		return numa(simProcs)
	case "gantt":
		return gantt(simProcs)
	case "chunks":
		return chunks(simProcs)
	case "serve":
		kind, err := parseKind(*kindName)
		if err != nil {
			return err
		}
		return serve(os.Stdout, serveConfig{
			procs: *procs, clients: *clients, requests: *requests,
			batch: *batch, cacheCap: *cacheCap, kind: kind,
			seed: *seed, maxBatch: *maxBatch,
			driftRate: *driftRate, driftEdits: *driftEdits,
		})
	case "server":
		kind, err := parseKind(*kindName)
		if err != nil {
			return err
		}
		return runServer(os.Stdout, serverConfig{
			addr: *addr, debugAddr: *debugAddr, procs: *procs, kind: kind,
			cacheCap: *cacheCap, maxInFlight: *maxInFlight,
			maxBatch: *maxBatch, timeout: *reqTimeout, drainWait: 30 * time.Second,
			tenantWeights: weights, tenantQuota: *tenantQuota,
			tenantQueue: *tenantQueue, tenantMax: *tenantMax,
		}, nil)
	case "router":
		backendList, err := parseBackends(*backends)
		if err != nil {
			return err
		}
		return runRouter(os.Stdout, routerCmdConfig{
			addr: *addr, backends: backendList, vnodes: *vnodes,
			warmLimit: *warmLimit, drainWait: 30 * time.Second,
		}, nil)
	case "cluster":
		kind, err := parseKind(*kindName)
		if err != nil {
			return err
		}
		return runCluster(os.Stdout, clusterCmdConfig{
			addr: *addr, replicas: *replicas,
			server: serverConfig{
				procs: *procs, kind: kind,
				cacheCap: *cacheCap, maxInFlight: *maxInFlight,
				maxBatch: *maxBatch, timeout: *reqTimeout, drainWait: 30 * time.Second,
				tenantWeights: weights, tenantQuota: *tenantQuota,
				tenantQueue: *tenantQueue, tenantMax: *tenantMax,
			},
		}, nil)
	case "loadgen":
		target := *addr
		if target != "" && target[0] == ':' {
			target = "127.0.0.1" + target
		}
		baseURL := "http://" + target
		var cl *router.Cluster
		if *clusterN > 0 {
			// In-process cluster mode: the scaling demo. The replicas and
			// the front door live in this process; the loadgen drives the
			// front door exactly as it would a remote one.
			kind, err := parseKind(*kindName)
			if err != nil {
				return err
			}
			cl, err = router.NewCluster(*clusterN, server.Config{
				Procs: *procs, Kind: kind, CacheCap: *cacheCap,
				MaxBatch: *maxBatch, DefaultTimeout: *reqTimeout,
			}, router.Config{VNodes: *vnodes, WarmLimit: *warmLimit}, "127.0.0.1:0")
			if err != nil {
				return err
			}
			baseURL = cl.URL()
			fmt.Printf("loadgen: in-process cluster of %d replicas behind %s, %d procs/plan\n", *clusterN, baseURL, clusterProcs(cl))
		}
		rep, err := loadgen(os.Stdout, loadgenConfig{
			baseURL: baseURL, clients: *clients, requests: *requests,
			batch: *batch, seed: *seed, timeout: *reqTimeout,
			driftRate: *driftRate, driftEdits: *driftEdits, wire: *wire, trace: *trace,
			tenants: *tenants, noStats: cl != nil,
		})
		if cl != nil {
			st := cl.Router().Stats()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			cerr := cl.Close(ctx)
			cancel()
			if err == nil && cerr != nil {
				err = cerr
			}
			if err == nil {
				printRouterStats(os.Stdout, st)
			}
		}
		if err != nil {
			return err
		}
		printLoadgenReport(os.Stdout, rep, *batch)
		if rep.failed > 0 {
			return fmt.Errorf("loadgen: %d requests failed (e.g. %s)", rep.failed, rep.failMsg)
		}
		return nil
	case "all":
		for _, e := range []string{"summary", "fig9", "table1", "table2", "table3",
			"table4", "table5", "fig12", "fig13", "model", "timego", "numa"} {
			fmt.Println()
			if err := run(append([]string{e}, args[1:]...)); err != nil {
				return fmt.Errorf("%s: %w", e, err)
			}
		}
	default:
		usage(fs)
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

// validateServingFlags rejects a negative -timeout, which is not a
// deadline. Only the serving experiments consume the flag; the
// table/figure experiments ignore it, so it is not validated there.
func validateServingFlags(exp string, timeout time.Duration) error {
	switch exp {
	case "serve", "server", "cluster", "loadgen":
		if timeout < 0 {
			return fmt.Errorf("usage: -timeout must not be negative, got %s", timeout)
		}
	}
	return nil
}

// validateWireFlag rejects unknown -wire formats before any traffic is
// generated. Only loadgen speaks the binary protocol; serve drives JSON
// and the other experiments ignore the flag.
func validateWireFlag(exp, wire string) error {
	if exp != "loadgen" {
		return nil
	}
	switch wire {
	case "", wireJSON, wireBinary:
		return nil
	}
	return fmt.Errorf("usage: -wire must be %s or %s, got %q", wireJSON, wireBinary, wire)
}

// validateTenantsFlag rejects degenerate adversarial mixes: the mode
// exists to pit one latency tenant against flooding batch tenants, so a
// single tenant is meaningless (plain loadgen already covers it).
func validateTenantsFlag(exp string, tenants int) error {
	if exp != "loadgen" {
		return nil
	}
	if tenants != 0 && tenants < 2 {
		return fmt.Errorf("usage: -tenants must be 0 (off) or >= 2 (1 latency + >=1 batch), got %d", tenants)
	}
	return nil
}

// parseTenantWeights parses the -tenant-weights flag, a comma-separated
// name=weight list. Weights must be positive integers; unlisted tenants
// default to weight 1 server-side.
func parseTenantWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	weights := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("usage: -tenant-weights entry %q is not name=weight", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("usage: -tenant-weights weight for %q must be a positive integer, got %q", name, val)
		}
		weights[name] = w
	}
	return weights, nil
}

// validateDriftFlags bounds the drifting-workload knobs: a drift rate is
// a probability, and a drift step must make at least one edit.
func validateDriftFlags(exp string, rate float64, edits int) error {
	switch exp {
	case "serve", "loadgen":
	default:
		return nil
	}
	if rate < 0 || rate > 1 {
		return fmt.Errorf("usage: -drift-rate must be in [0,1], got %g", rate)
	}
	if rate > 0 && edits < 1 {
		return fmt.Errorf("usage: -drift-edits must be positive when -drift-rate is set, got %d", edits)
	}
	return nil
}

func usage(fs *flag.FlagSet) {
	fmt.Fprintln(os.Stderr, "usage: loops <summary|fig9|table1|table2|table3|table4|table5|fig12|fig13|model|timego|calibrate|numa|gantt|chunks|serve|server|router|cluster|loadgen|all> [flags]")
	fs.PrintDefaults()
}

// parseBackends splits the -backends list, rejecting empty entries (a
// stray comma would silently shrink the ring).
func parseBackends(s string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("usage: router requires -backends host:port[,host:port...]")
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("usage: -backends contains an empty address in %q", s)
		}
		out = append(out, p)
	}
	return out, nil
}

func table1(procs, iters int, large bool) error {
	names := problems.Names()
	if large {
		names = append(names, problems.LargeNames()...)
	}
	rows, err := tables.Table1(names, procs, iters)
	if err != nil {
		return err
	}
	tables.FprintTable1(os.Stdout, rows, procs)
	return nil
}

func solveTable(kind machine.Executor, procs int) error {
	rows, err := tables.TriSolveDecomposition(problems.TriSolveNames(), procs, kind)
	if err != nil {
		return err
	}
	tables.FprintSolveRows(os.Stdout, rows, kind, procs)
	return nil
}

func table4(procs int) error {
	counts := []int{procs, procs * 2, procs * 4}
	rows, err := tables.Table4(problems.TriSolveNames(), counts)
	if err != nil {
		return err
	}
	tables.FprintTable4(os.Stdout, rows, counts)
	return nil
}

func table5(procs int) error {
	names := append([]string{"SPE2", "SPE5", "5-PT", "9-PT"}, problems.SyntheticNames()...)
	rows, err := tables.Table5(names, procs)
	if err != nil {
		return err
	}
	tables.FprintTable5(os.Stdout, rows, procs)
	return nil
}

func fig12(procs int) error {
	pts, err := tables.Figure12(procs)
	if err != nil {
		return err
	}
	tables.FprintFigure12(os.Stdout, pts)
	return nil
}

func fig13(procs int) error {
	pts, err := tables.Figure13(procs+1, 200, procs)
	if err != nil {
		return err
	}
	tables.FprintFigure13(os.Stdout, pts, procs+1, 200)
	return nil
}

func timego(procs int) error {
	for _, name := range []string{"SPE2", "5-PT"} {
		rows, err := tables.WhereDoesTheTimeGo(name, procs)
		if err != nil {
			return err
		}
		tables.FprintTimeGo(os.Stdout, name, procs, rows)
		fmt.Println()
	}
	return nil
}

func chunks(procs int) error {
	fmt.Printf("Dynamic self-scheduling chunk study (%d processors, claim cost 2 work units)\n", procs)
	fmt.Printf("%-9s", "Problem")
	labels := []string{"static", "chunk1", "chunk8", "chunk32", "guided"}
	for _, l := range labels {
		fmt.Printf(" %9s", l)
	}
	fmt.Println()
	costs := machine.MultimaxCosts()
	const claimCost = 2.0
	for _, name := range problems.TriSolveNames() {
		p, err := problems.Get(name)
		if err != nil {
			return err
		}
		order := schedule.Global(p.Wf, 1).Proc(0)
		static, err := machine.SimulateSelfExecuting(schedule.Global(p.Wf, procs), p.Deps, p.Work, costs)
		if err != nil {
			return err
		}
		results := []float64{static.Makespan}
		for _, pol := range []machine.ChunkPolicy{
			machine.FixedChunk(1), machine.FixedChunk(8), machine.FixedChunk(32),
			machine.GuidedChunk(1),
		} {
			r, err := machine.SimulateSelfScheduled(order, p.Deps, p.Work, procs, pol, claimCost, costs)
			if err != nil {
				return err
			}
			results = append(results, r.Makespan)
		}
		fmt.Printf("%-9s", name)
		for _, v := range results {
			fmt.Printf(" %9.0f", v)
		}
		fmt.Println()
	}
	fmt.Println("\nSmall chunks track the static wavefront schedule closely; large and guided")
	fmt.Println("chunks — tuned for doall loops — serialize dependence runs inside a single")
	fmt.Println("worker and collapse. Guided self-scheduling's big early chunks are exactly")
	fmt.Println("wrong for doconsider loops, which is why the paper builds schedules from the")
	fmt.Println("dependence structure instead of claiming blindly.")
	return nil
}

func gantt(procs int) error {
	// A narrow model problem (m = procs+1) makes the pipelining visible:
	// the pre-scheduled Gantt shows end-of-phase stalls; self-execution
	// fills them.
	p, err := problems.Get(fmt.Sprintf("%dmesh", 65))
	if err != nil {
		return err
	}
	gs := schedule.Local(p.Wf, procs, schedule.Striped)
	costs := machine.MultimaxCosts()
	tr, err := machine.TraceSelfExecuting(gs, p.Deps, p.Work, costs)
	if err != nil {
		return err
	}
	fmt.Printf("Self-executing timeline, 65x65 mesh, %d processors (striped, local sort):\n", procs)
	if err := tr.Gantt(os.Stdout, 100); err != nil {
		return err
	}
	util := tr.Utilization()
	min, max := 1.0, 0.0
	for _, u := range util {
		if u < min {
			min = u
		}
		if u > max {
			max = u
		}
	}
	fmt.Printf("utilization: min %.2f max %.2f\n\n", min, max)

	trPre := machine.TracePreScheduled(gs, p.Work, costs)
	fmt.Printf("Pre-scheduled timeline (same schedule, barrier per phase):\n")
	if err := trPre.Gantt(os.Stdout, 100); err != nil {
		return err
	}
	utilPre := trPre.Utilization()
	min, max = 1.0, 0.0
	for _, u := range utilPre {
		if u < min {
			min = u
		}
		if u > max {
			max = u
		}
	}
	fmt.Printf("utilization: min %.2f max %.2f (idle = barrier stalls)\n", min, max)
	return nil
}

func calibrate(procs int) error {
	c := machine.Calibrate(procs)
	fmt.Printf("host calibration (%d goroutine parties, Tflop normalized to 1):\n", procs)
	fmt.Printf("  Tsynch  %8.2f   (global synchronization)\n", c.Tsynch)
	fmt.Printf("  Tcheck  %8.2f   (shared ready-array read)\n", c.Tcheck)
	fmt.Printf("  Tinc    %8.2f   (shared ready-array write)\n", c.Tinc)
	fmt.Println("\nTable 2/3 decomposition with host-calibrated costs is available by")
	fmt.Println("substituting these constants for machine.MultimaxCosts in the drivers.")
	return nil
}

func numa(procs int) error {
	c := machine.DefaultNUMACosts()
	fmt.Printf("Hierarchical/distributed memory projection (§5.1.3 extension), %d processors\n", procs)
	fmt.Printf("remote check/local check cost ratio: %.1f\n\n", c.TcheckRemote/c.TcheckLocal)
	fmt.Printf("%-9s %10s %10s %12s %12s %12s\n",
		"Problem", "RemFrac-G", "RemFrac-L", "SE-NUMA(G)", "SE-NUMA(L)", "PS-NUMA")
	for _, name := range problems.TriSolveNames() {
		p, err := problems.Get(name)
		if err != nil {
			return err
		}
		gs := schedule.Global(p.Wf, procs)
		ls := schedule.Local(p.Wf, procs, schedule.Blocked)
		rg, err := machine.SimulateSelfExecutingNUMA(gs, p.Deps, p.Work, c)
		if err != nil {
			return err
		}
		rl, err := machine.SimulateSelfExecutingNUMA(ls, p.Deps, p.Work, c)
		if err != nil {
			return err
		}
		ps := machine.SimulatePreScheduledNUMA(gs, p.Work, c)
		fmt.Printf("%-9s %10.2f %10.2f %12.0f %12.0f %12.0f\n",
			name,
			machine.RemoteFraction(gs, p.Deps),
			machine.RemoteFraction(ls, p.Deps),
			rg.Makespan, rl.Makespan, ps.Makespan)
	}
	fmt.Println("\nRemote busy-wait checks at 10x local cost erase the self-executing")
	fmt.Println("advantage: pre-scheduling wins every problem in this projection. Blocked")
	fmt.Println("partitions cut the remote fraction but pay in load balance — the")
	fmt.Println("locality/balance tension that pushed this line of work toward")
	fmt.Println("message-passing runtimes on distributed memory.")
	return nil
}

func modelReport(procs int) error {
	fmt.Println("Section 4 analytic model (m x n five-point mesh model problem)")
	costs := machine.MultimaxCosts()
	r := model.Ratios{Rsynch: costs.Tsynch, Rinc: costs.Tinc, Rcheck: costs.Tcheck}
	fmt.Printf("Cost ratios: Rsynch=%.0f Rinc=%.2f Rcheck=%.2f\n\n", r.Rsynch, r.Rinc, r.Rcheck)
	fmt.Printf("%-28s %10s %10s %10s\n", "Domain", "Eopt(PS)", "Eopt(SE)", "T_PS/T_SE")
	for _, c := range []struct{ m, n int }{
		{procs + 1, 100}, {procs + 1, 1000}, {64, 64}, {256, 256}, {1024, 1024},
	} {
		fmt.Printf("%-28s %10.3f %10.3f %10.3f\n",
			fmt.Sprintf("%dx%d, p=%d", c.m, c.n, procs),
			model.EoptPreScheduled(c.m, c.n, procs),
			model.EoptSelfExecuting(c.m, c.n, procs),
			model.TimeRatio(c.m, c.n, procs, r))
	}
	fmt.Printf("\nNarrow-domain limit (eq. 6, m=p+1):        %.3f\n",
		model.TimeRatioLimitNarrow(procs, r))
	fmt.Printf("Narrow-domain limit (elapsed convention):  %.3f\n",
		model.TimeRatioLimitNarrowElapsed(procs, r))
	fmt.Printf("Square-domain limit (eq. 7):               %.3f\n",
		model.TimeRatioLimitSquare(r))
	se, ps := model.DenseTriangular(1000)
	fmt.Printf("Dense triangular n=1000 on n-1 procs: Eopt(SE)=%.3f Eopt(PS)=%.4f\n", se, ps)
	return nil
}
