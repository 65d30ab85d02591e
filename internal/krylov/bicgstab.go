package krylov

import (
	"fmt"
	"math"

	"doconsider/internal/sparse"
)

// BiCGSTAB solves A x = b with the stabilized bi-conjugate gradient
// method, right-preconditioned with M (z = M^{-1} v applied through the
// run-time-parallelized triangular solves). PCGPAK shipped several Krylov
// accelerators besides GMRES; BiCGSTAB provides a short-recurrence
// nonsymmetric alternative with constant memory, unlike restarted GMRES.
// x holds the initial guess on entry and the solution on exit.
func BiCGSTAB(a *sparse.CSR, x, b []float64, m Preconditioner, o Options) (Result, error) {
	n := a.N
	o.defaults(n)
	op, err := newOps(a, o.Procs, x, b)
	if err != nil {
		return Result{}, err
	}

	r := make([]float64, n)
	rhat := make([]float64, n)
	p := make([]float64, n)
	v := make([]float64, n)
	s := make([]float64, n)
	t := make([]float64, n)
	phat := make([]float64, n)
	shat := make([]float64, n)

	op.matVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	copy(rhat, r)
	bnorm := op.norm2(b)
	if bnorm == 0 {
		bnorm = 1
	}
	res := Result{Residual: op.norm2(r) / bnorm}
	if res.Residual <= o.Tol {
		res.Converged = true
		return res, nil
	}
	var rho, alpha, omega float64 = 1, 1, 1
	for k := 0; k < o.MaxIter; k++ {
		rhoNew := op.dot(rhat, r)
		if rhoNew == 0 {
			return res, fmt.Errorf("krylov: BiCGSTAB breakdown, rho = 0 at iteration %d", k)
		}
		if k == 0 {
			copy(p, r)
		} else {
			beta := (rhoNew / rho) * (alpha / omega)
			for i := range p {
				p[i] = r[i] + float64(beta*(p[i]-float64(omega*v[i])))
			}
		}
		rho = rhoNew
		m.Apply(phat, p)
		op.matVec(v, phat)
		denom := op.dot(rhat, v)
		if denom == 0 {
			return res, fmt.Errorf("krylov: BiCGSTAB breakdown, rhat'v = 0 at iteration %d", k)
		}
		alpha = rho / denom
		for i := range s {
			s[i] = r[i] - float64(alpha*v[i])
		}
		res.Iterations = k + 1
		if sn := op.norm2(s) / bnorm; sn <= o.Tol {
			op.axpy(alpha, phat, x)
			res.Residual = sn
			res.Converged = true
			return res, nil
		}
		m.Apply(shat, s)
		op.matVec(t, shat)
		tt := op.dot(t, t)
		if tt == 0 {
			return res, fmt.Errorf("krylov: BiCGSTAB breakdown, t = 0 at iteration %d", k)
		}
		omega = op.dot(t, s) / tt
		if omega == 0 {
			return res, fmt.Errorf("krylov: BiCGSTAB breakdown, omega = 0 at iteration %d", k)
		}
		op.axpy(alpha, phat, x)
		op.axpy(omega, shat, x)
		for i := range r {
			r[i] = s[i] - float64(omega*t[i])
		}
		res.Residual = op.norm2(r) / bnorm
		o.record(res.Residual)
		if res.Residual <= o.Tol || math.IsNaN(res.Residual) {
			res.Converged = res.Residual <= o.Tol
			if res.Converged {
				return res, nil
			}
			return res, fmt.Errorf("krylov: BiCGSTAB diverged (NaN residual) at iteration %d", k)
		}
	}
	return res, ErrNoConvergence
}
