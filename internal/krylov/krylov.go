// Package krylov is the repo's stand-in for PCGPAK, the commercial
// preconditioned Krylov solver the paper parallelized (Appendix I–II):
// conjugate gradients for symmetric positive definite systems and
// restarted GMRES for the nonsymmetric reservoir and convection problems,
// both with incomplete-factorization preconditioning applied through
// run-time-parallelized sparse triangular solves.
//
// The whole iteration runs on the executor's one worker set: each
// triangular solve is a pass of its plan, and each inner product, SAXPY
// and matvec is a column pass over fixed blocks of rows. Reductions sum
// the blocks in block order, so a solve returns the same bits whatever
// the processor count, the width a pass is granted and the executor kind.
package krylov

import (
	"errors"
	"fmt"
	"math"

	"doconsider/internal/sparse"
)

// Preconditioner applies z = M^{-1} r.
type Preconditioner interface {
	Apply(z, r []float64)
}

// IdentityPrec is the trivial preconditioner z = r.
type IdentityPrec struct{}

// Apply copies r to z.
func (IdentityPrec) Apply(z, r []float64) { copy(z, r) }

// ErrNoConvergence reports that the iteration hit its limit before the
// residual tolerance was met.
var ErrNoConvergence = errors.New("krylov: iteration limit reached")

// Result reports the outcome of a Krylov solve.
type Result struct {
	Iterations int     // Krylov iterations performed
	Residual   float64 // final preconditioned residual 2-norm
	Converged  bool
}

// Options controls the iteration.
type Options struct {
	Tol     float64 // relative residual tolerance (default 1e-8)
	MaxIter int     // maximum iterations (default 500)
	Restart int     // GMRES restart length m (default 30)
	// Procs caps the width of the vector operations' and matvec's passes
	// (default 1). The solution's bits do not depend on it.
	Procs int
	// History, when non-nil, receives the relative residual after each
	// iteration (useful for convergence plots and preconditioner studies).
	History *[]float64
}

func (o *Options) record(res float64) {
	if o.History != nil {
		*o.History = append(*o.History, res)
	}
}

func (o *Options) defaults(n int) {
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 500
	}
	if o.Restart <= 0 {
		o.Restart = 30
	}
	if o.Procs <= 0 {
		o.Procs = 1
	}
	if o.Restart > n {
		o.Restart = n
	}
}

// CG solves A x = b with preconditioned conjugate gradients. A must be
// symmetric positive definite. x holds the initial guess on entry and the
// solution on exit.
func CG(a *sparse.CSR, x, b []float64, m Preconditioner, o Options) (Result, error) {
	n := a.N
	o.defaults(n)
	op, err := newOps(a, o.Procs, x, b)
	if err != nil {
		return Result{}, err
	}
	r := make([]float64, n)
	z := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)

	op.matVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	m.Apply(z, r)
	copy(p, z)
	rz := op.dot(r, z)
	bnorm := op.norm2(b)
	if bnorm == 0 {
		bnorm = 1
	}
	res := Result{}
	for k := 0; k < o.MaxIter; k++ {
		op.matVec(ap, p)
		pap := op.dot(p, ap)
		if pap == 0 {
			return res, fmt.Errorf("krylov: CG breakdown, p'Ap = 0 at iteration %d", k)
		}
		alpha := rz / pap
		op.axpy(alpha, p, x)
		op.axpy(-alpha, ap, r)
		rnorm := op.norm2(r)
		res.Iterations = k + 1
		res.Residual = rnorm / bnorm
		o.record(res.Residual)
		if res.Residual <= o.Tol {
			res.Converged = true
			return res, nil
		}
		m.Apply(z, r)
		rzNew := op.dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + float64(beta*p[i])
		}
	}
	return res, ErrNoConvergence
}

// GMRES solves A x = b with restarted, left-preconditioned GMRES(m).
// x holds the initial guess on entry and the solution on exit.
func GMRES(a *sparse.CSR, x, b []float64, mPrec Preconditioner, o Options) (Result, error) {
	n := a.N
	o.defaults(n)
	m := o.Restart
	op, err := newOps(a, o.Procs, x, b)
	if err != nil {
		return Result{}, err
	}

	r := make([]float64, n)
	w := make([]float64, n)
	z := make([]float64, n)
	// Krylov basis, Hessenberg, Givens rotations and RHS of the LS problem.
	v := make([][]float64, m+1)
	for i := range v {
		v[i] = make([]float64, n)
	}
	h := make([][]float64, m+1)
	for i := range h {
		h[i] = make([]float64, m)
	}
	cs := make([]float64, m)
	sn := make([]float64, m)
	g := make([]float64, m+1)

	// beta0: norm of the initial preconditioned residual (for the relative test).
	computeResidual := func() float64 {
		op.matVec(w, x)
		for i := range w {
			w[i] = b[i] - w[i]
		}
		mPrec.Apply(r, w)
		return op.norm2(r)
	}
	beta0 := computeResidual()
	if beta0 == 0 {
		return Result{Converged: true}, nil
	}

	res := Result{}
	total := 0
	for total < o.MaxIter {
		beta := computeResidual()
		if beta/beta0 <= o.Tol {
			res.Converged = true
			res.Residual = beta / beta0
			return res, nil
		}
		for i := range g {
			g[i] = 0
		}
		g[0] = beta
		inv := 1 / beta
		for i := range v[0] {
			v[0][i] = r[i] * inv
		}
		j := 0
		for ; j < m && total < o.MaxIter; j++ {
			total++
			// w = M^{-1} A v_j
			op.matVec(z, v[j])
			mPrec.Apply(w, z)
			// Modified Gram-Schmidt.
			for i := 0; i <= j; i++ {
				h[i][j] = op.dot(w, v[i])
				op.axpy(-h[i][j], v[i], w)
			}
			h[j+1][j] = op.norm2(w)
			arnoldiNorm := h[j+1][j]
			if arnoldiNorm > 0 {
				inv := 1 / arnoldiNorm
				for i := range v[j+1] {
					v[j+1][i] = w[i] * inv
				}
			}
			// Apply previous Givens rotations to the new column.
			for i := 0; i < j; i++ {
				t := float64(cs[i]*h[i][j]) + float64(sn[i]*h[i+1][j])
				h[i+1][j] = float64(-sn[i]*h[i][j]) + float64(cs[i]*h[i+1][j])
				h[i][j] = t
			}
			// New rotation to annihilate h[j+1][j].
			denom := math.Hypot(h[j][j], h[j+1][j])
			if denom == 0 {
				cs[j], sn[j] = 1, 0
			} else {
				cs[j] = h[j][j] / denom
				sn[j] = h[j+1][j] / denom
			}
			h[j][j] = float64(cs[j]*h[j][j]) + float64(sn[j]*h[j+1][j])
			h[j+1][j] = 0
			g[j+1] = -sn[j] * g[j]
			g[j] = cs[j] * g[j]
			res.Iterations = total
			res.Residual = math.Abs(g[j+1]) / beta0
			o.record(res.Residual)
			if res.Residual <= o.Tol || arnoldiNorm == 0 {
				// Converged, or lucky breakdown (the Krylov space is
				// invariant and the least-squares solve is exact).
				j++
				break
			}
		}
		// Solve the j×j triangular system and update x.
		y := make([]float64, j)
		for i := j - 1; i >= 0; i-- {
			s := g[i]
			for k := i + 1; k < j; k++ {
				s -= float64(h[i][k] * y[k])
			}
			if h[i][i] == 0 {
				return res, fmt.Errorf("krylov: GMRES breakdown, H[%d][%d]=0", i, i)
			}
			y[i] = s / h[i][i]
		}
		for i := 0; i < j; i++ {
			op.axpy(y[i], v[i], x)
		}
		if res.Residual <= o.Tol {
			// Confirm with a true residual.
			res.Residual = computeResidual() / beta0
			if res.Residual <= o.Tol*10 {
				res.Converged = true
				return res, nil
			}
		}
	}
	return res, ErrNoConvergence
}
