package krylov

import (
	"fmt"

	"doconsider/internal/executor"
	"doconsider/internal/ilu"
	"doconsider/internal/sparse"
	"doconsider/internal/trisolve"
)

// ILUPrec applies an incomplete LU preconditioner through a forward and a
// backward sparse triangular solve, each run by a run-time-parallelized
// executor plan built once (the inspector cost is amortized over all
// iterations, as in the paper's Table 1 accounting).
type ILUPrec struct {
	Fact    *ilu.Factor
	Forward *trisolve.Plan
	Back    *trisolve.Plan
	tmp     []float64
}

// ILUPrecOptions configures preconditioner construction.
type ILUPrecOptions struct {
	Level     int                    // fill level (0 = zero fill)
	Procs     int                    // processors for the triangular solves
	Kind      executor.Kind          // executor kind for the solves
	Scheduler trisolve.SchedulerKind // index-set scheduling method
	// FactorParallel selects parallel numeric factorization with the same
	// executor kind; otherwise the numeric factorization is sequential.
	FactorParallel bool
	// Plans, when non-nil, leases the two triangular-solve plans from the
	// cache instead of running the inspector per preconditioner:
	// preconditioners over factors with identical sparsity (the same mesh
	// refactored with new coefficients, or many concurrent solvers on one
	// model) share wavefront analysis, schedules and executors. Close
	// releases the leases.
	Plans *trisolve.PlanCache
}

// NewILUPrec performs symbolic and numeric incomplete factorization of a
// and builds executor plans for the two triangular solves.
func NewILUPrec(a *sparse.CSR, o ILUPrecOptions) (*ILUPrec, error) {
	if o.Procs <= 0 {
		o.Procs = 1
	}
	pat, err := ilu.Symbolic(a, o.Level)
	if err != nil {
		return nil, err
	}
	var fact *ilu.Factor
	if o.FactorParallel && o.Procs > 1 {
		sched := ilu.GlobalSchedule
		if o.Scheduler == trisolve.LocalSched {
			sched = ilu.LocalSchedule
		}
		fact, _, err = ilu.NumericParallel(a, pat, o.Procs, o.Kind, sched)
	} else {
		fact, err = ilu.NumericSeq(a, pat)
	}
	if err != nil {
		return nil, err
	}
	l := fact.L()
	u := fact.U()
	opts := []trisolve.Option{
		trisolve.WithProcs(o.Procs), trisolve.WithKind(o.Kind), trisolve.WithScheduler(o.Scheduler),
	}
	newPlan := trisolve.NewPlan
	if o.Plans != nil {
		newPlan = o.Plans.Get
	}
	fwd, err := newPlan(l, true, opts...)
	if err != nil {
		return nil, err
	}
	back, err := newPlan(u, false, opts...)
	if err != nil {
		fwd.Close()
		return nil, err
	}
	return &ILUPrec{Fact: fact, Forward: fwd, Back: back, tmp: make([]float64, a.N)}, nil
}

// Apply solves L U z = r: a forward solve followed by a backward solve,
// both through the planned executors.
func (p *ILUPrec) Apply(z, r []float64) {
	p.Forward.Solve(p.tmp, r)
	p.Back.Solve(z, p.tmp)
}

// Close releases the two solve plans' leases when they came from a
// PlanCache; plans built by the preconditioner hold nothing to release.
func (p *ILUPrec) Close() error {
	err := p.Forward.Close()
	if err2 := p.Back.Close(); err == nil {
		err = err2
	}
	return err
}

// JacobiPrec is the diagonal (point Jacobi) preconditioner z = D^{-1} r —
// the trivially parallel baseline against which incomplete-factorization
// preconditioning (and hence the whole run-time parallelization machinery)
// earns its keep.
type JacobiPrec struct {
	invDiag []float64
}

// NewJacobiPrec extracts the inverse diagonal of a. Zero diagonal entries
// yield an error.
func NewJacobiPrec(a *sparse.CSR) (*JacobiPrec, error) {
	inv := make([]float64, a.N)
	for i := 0; i < a.N; i++ {
		d := a.At(i, i)
		if d == 0 {
			return nil, fmt.Errorf("krylov: zero diagonal at row %d", i)
		}
		inv[i] = 1 / d
	}
	return &JacobiPrec{invDiag: inv}, nil
}

// Apply computes z = D^{-1} r.
func (p *JacobiPrec) Apply(z, r []float64) {
	for i := range z {
		z[i] = r[i] * p.invDiag[i]
	}
}
