// Command loops regenerates the tables and figures of "Run-Time
// Parallelization and Scheduling of Loops" (Saltz, Mirchandaney, Baxter;
// ICASE 88-70 / SPAA 1989) from this repository's reimplementation.
//
// Usage:
//
//	loops <command> [flags]
//
// Every command parses only the flags it reads: `loops <command> -h`
// lists them, and any other flag is an error.
//
// The simulated experiments — summary, fig9, table1, table2, table3,
// table4, table5, fig12, fig13, model, timego, calibrate, numa, gantt,
// chunks, and all, which runs most of them in turn — share one flag
// family: -procs (the paper's 16), -iters and -large.
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
//     latency percentiles and the server's cache rates.
//   - serve: stand up an in-process deployment on loopback ports — one
//     server, or -replicas N behind a front door — and drive it with the
//     same loadgen.
//
// server, cluster and serve build their servers from one set of flags.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"

	"doconsider/internal/machine"
	"doconsider/internal/model"
	"doconsider/internal/problems"
	"doconsider/internal/schedule"
	"doconsider/internal/tables"
)

func main() {
	// -h has printed the command's flags: that is a success, as with
	// flag.ExitOnError.
	if err := run(os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "loops:", err)
		os.Exit(1)
	}
}

// command is one `loops` command. flags declares on fs the flags the
// command reads and no others; check validates the parsed values before
// anything starts, so a bad value is a usage error; run is the command.
type command interface {
	flags(fs *flag.FlagSet)
	check() error
	run() error
}

// newCommand returns the named command, or nil for an unknown name.
func newCommand(name string) command {
	if exp, ok := experiments[name]; ok {
		return &simCmd{exp: exp}
	}
	switch name {
	case "all":
		return &simCmd{exp: all}
	case "server":
		return &serverCmd{}
	case "router":
		return &routerCmd{}
	case "cluster":
		return &clusterCmd{}
	case "loadgen":
		return &loadgenCmd{}
	case "serve":
		return &serveCmd{}
	}
	return nil
}

func run(args []string) error {
	c, err := parse(args)
	if err != nil {
		return err
	}
	return c.run()
}

// parse builds the command args[0] names, parses the rest of args with
// that command's flag set and checks the values. It starts nothing.
func parse(args []string) (command, error) {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, usageLine)
		return nil, errors.New("missing command name")
	}
	c := newCommand(args[0])
	if c == nil {
		fmt.Fprintln(os.Stderr, usageLine)
		return nil, fmt.Errorf("unknown command %q", args[0])
	}
	fs := flag.NewFlagSet("loops "+args[0], flag.ContinueOnError)
	c.flags(fs)
	if err := fs.Parse(args[1:]); err != nil {
		return nil, err
	}
	err := c.check()
	if err == nil && fs.NArg() > 0 {
		err = fmt.Errorf("usage: unexpected argument %q", fs.Arg(0))
	}
	if err != nil {
		fs.Usage()
		return nil, err
	}
	return c, nil
}

const usageLine = "usage: loops <summary|fig9|table1|table2|table3|table4|table5|fig12|fig13|model|timego|calibrate|numa|gantt|chunks|all|serve|server|router|cluster|loadgen> [flags]\n" +
	"       loops <command> -h lists that command's flags"

// usageErr marks a configuration's Validate error as a usage error.
func usageErr(err error) error {
	if err != nil {
		return fmt.Errorf("usage: %w", err)
	}
	return nil
}

// simFlags is the flag family the simulated experiments share, so `loops
// all` hands each experiment the same values.
type simFlags struct {
	procs, iters int
	large        bool
}

// simCmd runs one simulated experiment, or all of them.
type simCmd struct {
	simFlags
	exp func(simFlags) error
}

func (c *simCmd) flags(fs *flag.FlagSet) {
	fs.IntVar(&c.procs, "procs", tables.DefaultProcs, "simulated processor count")
	fs.IntVar(&c.iters, "iters", 50, "Krylov iterations assumed for Table 1")
	fs.BoolVar(&c.large, "large", false, "include the large problem variants (slow)")
}

func (c *simCmd) check() error {
	if c.procs < 1 {
		return fmt.Errorf("usage: -procs must be positive, got %d", c.procs)
	}
	return nil
}

func (c *simCmd) run() error { return c.exp(c.simFlags) }

// experiments are the simulated reproductions, by command name.
var experiments = map[string]func(simFlags) error{
	"summary":   func(simFlags) error { tables.FprintSummary(os.Stdout); return nil },
	"fig9":      func(simFlags) error { return tables.FprintFigure9(os.Stdout, 5, 7, 4) },
	"table1":    func(f simFlags) error { return table1(f.procs, f.iters, f.large) },
	"table2":    func(f simFlags) error { return solveTable(machine.SelfExecutingSim, f.procs) },
	"table3":    func(f simFlags) error { return solveTable(machine.PreScheduledSim, f.procs) },
	"table4":    onProcs(table4),
	"table5":    onProcs(table5),
	"fig12":     onProcs(fig12),
	"fig13":     onProcs(fig13),
	"model":     onProcs(modelReport),
	"timego":    onProcs(timego),
	"calibrate": onProcs(calibrate),
	"numa":      onProcs(numa),
	"gantt":     onProcs(gantt),
	"chunks":    onProcs(chunks),
}

// onProcs adapts an experiment that reads only -procs.
func onProcs(exp func(procs int) error) func(simFlags) error {
	return func(f simFlags) error { return exp(f.procs) }
}

// all is `loops all`: the paper's reproductions in order, each with the
// same flags.
func all(f simFlags) error {
	for _, e := range []string{"summary", "fig9", "table1", "table2", "table3",
		"table4", "table5", "fig12", "fig13", "model", "timego", "numa"} {
		fmt.Println()
		if err := experiments[e](f); err != nil {
			return fmt.Errorf("%s: %w", e, err)
		}
	}
	return nil
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
	rows, err := tables.TriSolveDecomposition(problems.TriSolveNames(), procs, kind, machine.MultimaxCosts())
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
	fmt.Printf("utilization: min %.2f max %.2f\n\n", slices.Min(util), slices.Max(util))

	trPre := machine.TracePreScheduled(gs, p.Work, costs)
	fmt.Printf("Pre-scheduled timeline (same schedule, barrier per phase):\n")
	if err := trPre.Gantt(os.Stdout, 100); err != nil {
		return err
	}
	utilPre := trPre.Utilization()
	fmt.Printf("utilization: min %.2f max %.2f (idle = barrier stalls)\n", slices.Min(utilPre), slices.Max(utilPre))
	return nil
}

// calibrate prints the host's costs, measured on passes of the runner,
// and Table 2 under them next to Table 2 under the Multimax's.
func calibrate(procs int) error {
	c := machine.Calibrate()
	fmt.Printf("host calibration (passes of the runner, at most %d wide; Tflop normalized to 1):\n", runtime.GOMAXPROCS(0))
	fmt.Printf("  Tsynch  %8.2f   (global synchronization)\n", c.Tsynch)
	fmt.Printf("  Tcheck  %8.2f   (shared ready-array read)\n", c.Tcheck)
	fmt.Printf("  Tinc    %8.2f   (shared ready-array write, with the index's dispatch)\n", c.Tinc)
	for _, costs := range []struct {
		name string
		c    machine.Costs
	}{{"Multimax costs", machine.MultimaxCosts()}, {"host costs", c}} {
		rows, err := tables.TriSolveDecomposition(problems.TriSolveNames(), procs, machine.SelfExecutingSim, costs.c)
		if err != nil {
			return err
		}
		fmt.Printf("\nunder %s:\n", costs.name)
		tables.FprintSolveRows(os.Stdout, rows, machine.SelfExecutingSim, procs)
	}
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
