package krylov

import (
	"time"

	"doconsider/internal/executor"
	"doconsider/internal/sparse"
	"doconsider/internal/trisolve"
)

// Method selects the Krylov iteration.
type Method int

const (
	// MethodGMRES uses restarted GMRES (the general nonsymmetric choice).
	MethodGMRES Method = iota
	// MethodCG uses preconditioned conjugate gradients (SPD systems).
	MethodCG
	// MethodBiCGSTAB uses the stabilized bi-conjugate gradient method
	// (nonsymmetric, short recurrences, constant memory).
	MethodBiCGSTAB
)

// solve runs the method on A x = b, preconditioned by m.
func (method Method) solve(a *sparse.CSR, x, b []float64, m Preconditioner, o Options) (Result, error) {
	switch method {
	case MethodCG:
		return CG(a, x, b, m, o)
	case MethodBiCGSTAB:
		return BiCGSTAB(a, x, b, m, o)
	}
	return GMRES(a, x, b, m, o)
}

// SolverConfig describes a complete PCGPAK-style solve.
type SolverConfig struct {
	Method         Method
	Level          int // ILU fill level
	Procs          int
	Kind           executor.Kind
	Scheduler      trisolve.SchedulerKind
	FactorParallel bool
	Opts           Options
}

// Timings decomposes where the wall-clock time of a full solve went —
// mirroring the paper's Table 1 columns (solve time plus the separately
// reported topological sort time).
type Timings struct {
	Symbolic time.Duration // symbolic factorization + plan construction (inspector)
	Numeric  time.Duration // numeric factorization
	Iterate  time.Duration // Krylov iteration (matvecs, solves, vector ops)
	Total    time.Duration
}

// SolveOutcome is the full result of Solve.
type SolveOutcome struct {
	Result  Result
	Timings Timings
	Phases  int // wavefronts of the forward factor
}

// Solve runs the configured preconditioned Krylov method on A x = b.
// x holds the initial guess on entry and the solution on exit.
func Solve(a *sparse.CSR, x, b []float64, cfg SolverConfig) (SolveOutcome, error) {
	var out SolveOutcome
	start := time.Now()
	t0 := time.Now()
	prec, err := NewILUPrec(a, ILUPrecOptions{
		Level:          cfg.Level,
		Procs:          cfg.Procs,
		Kind:           cfg.Kind,
		Scheduler:      cfg.Scheduler,
		FactorParallel: cfg.FactorParallel,
	})
	if err != nil {
		return out, err
	}
	setup := time.Since(t0)
	// The numeric factorization happens inside NewILUPrec; attribute the
	// whole setup to Symbolic+Numeric by re-running numeric timing is not
	// worth the complexity, so report it as Symbolic (inspector+factor).
	out.Timings.Symbolic = setup
	out.Phases = prec.Forward.Phases()

	opts := cfg.Opts
	opts.Procs = cfg.Procs
	t0 = time.Now()
	res, err := cfg.Method.solve(a, x, b, prec, opts)
	out.Timings.Iterate = time.Since(t0)
	out.Timings.Total = time.Since(start)
	out.Result = res
	return out, err
}
