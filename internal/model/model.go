// Package model implements the analytic performance model of paper
// Section 4: load-balance-optimal efficiencies for pre-scheduled and
// self-executing executions of the model problem (the lower triangular
// system from zero-fill factorization of a five-point m×n mesh), and the
// predicted time ratio between the two executors including synchronization
// overheads (equations 3–7).
package model

import "math"

// PhaseWidth returns the number of mesh points in wavefront j (1-based,
// j = 1..n+m-1) of the m×n model problem: wavefronts are anti-diagonal
// strips of the domain.
func PhaseWidth(m, n, j int) int {
	min := m
	if n < min {
		min = n
	}
	switch {
	case j < 1 || j > n+m-1:
		return 0
	case j < min:
		return j
	case j <= n+m-min:
		return min
	default:
		return n + m - j
	}
}

// MC returns the maximum number of mesh points any processor computes in
// phase j under the wrapped assignment: ceil(PhaseWidth/p).
func MC(m, n, p, j int) int {
	w := PhaseWidth(m, n, j)
	return (w + p - 1) / p
}

// PreScheduledTime returns the pre-scheduled computation time of the model
// problem in units of Tp (per-point time), excluding synchronization:
// Tc/Tp = sum over phases of MC(j) (equation 2's summand).
func PreScheduledTime(m, n, p int) float64 {
	t := 0
	for j := 1; j <= n+m-1; j++ {
		t += MC(m, n, p, j)
	}
	return float64(t)
}

// EoptPreScheduled returns the exact load-balance-limited efficiency of
// the pre-scheduled execution (equation 3): S/(p·Tc) = mn/(p·ΣMC(j)).
func EoptPreScheduled(m, n, p int) float64 {
	return float64(m*n) / (float64(p) * PreScheduledTime(m, n, p))
}

// EoptPreScheduledApprox returns the closed-form approximation of
// equation 4, derived from cumulative processor idle time:
//
//	Eopt ≈ mn / (mn + min(m̂,n̂)(p-1) + (m+n+1-2min(m̂,n̂))·((p - min(m,n) mod p) mod p))
//
// where m̂ and n̂ are the largest multiples of p not exceeding m and n.
func EoptPreScheduledApprox(m, n, p int) float64 {
	mh := (m / p) * p
	nh := (n / p) * p
	minHat := mh
	if nh < minHat {
		minHat = nh
	}
	minMN := m
	if n < minMN {
		minMN = n
	}
	perPhaseLoss := 0
	if minMN%p != 0 {
		perPhaseLoss = p - minMN%p
	}
	den := float64(m*n) +
		float64(minHat*(p-1)) +
		float64((m+n+1-2*minHat)*perPhaseLoss)
	return float64(m*n) / den
}

// EoptSelfExecuting returns the load-balance-limited efficiency of the
// self-executing execution (equation 5): only the first and last p-1
// wavefronts contribute idle time, cumulative idle = p(p-1)·Tp, so
// Eopt = mn/(mn + p(p-1)).
func EoptSelfExecuting(m, n, p int) float64 {
	return float64(m*n) / float64(m*n+p*(p-1))
}

// Ratios holds the paper's normalized synchronization costs:
// Rsynch = Tsynch/Tp, Rinc = Tinc/Tp, Rcheck = Tcheck/Tp.
type Ratios struct {
	Rsynch float64
	Rinc   float64
	Rcheck float64
}

// TimeRatio returns the predicted ratio of pre-scheduled to self-executing
// solve time for the model problem (the expression preceding equation 6):
//
//	      T_pre     S/(p·E_ps) + Tsynch(n+m-1)
//	R = -------- = ------------------------------------
//	      T_self    (S/(p·E_se))·(1 + Rinc + 2·Rcheck)
//
// in units where Tp = 1 (so S = mn).
func TimeRatio(m, n, p int, r Ratios) float64 {
	s := float64(m * n)
	// Each product that feeds a sum is rounded first, so no architecture
	// fuses it and every one prints the same figures.
	pre := s/(float64(p)*EoptPreScheduled(m, n, p)) + float64(r.Rsynch*float64(n+m-1))
	self := (s / (float64(p) * EoptSelfExecuting(m, n, p))) * (1 + r.Rinc + float64(2*r.Rcheck))
	return pre / self
}

// TimeRatioLimitNarrow returns the large-n limit of the time ratio for a
// narrow domain m = p+1, exactly as printed in the paper (equation 6):
//
//	R → (2p + Rsynch) / ((p+1)(1 + Rinc + 2·Rcheck))
//
// Slightly under half the processors idle under pre-scheduling, so
// self-execution is predicted to win whenever shared-memory checks are
// cheap.
//
// Note on conventions: equation 6 charges each global synchronization a
// single Tsynch of aggregate processor time. TimeRatio above is an
// elapsed-time ratio, in which every barrier stalls all p processors, so
// its large-n narrow-domain limit is TimeRatioLimitNarrowElapsed; the two
// coincide under the substitution Rsynch → Rsynch/p.
func TimeRatioLimitNarrow(p int, r Ratios) float64 {
	return (2*float64(p) + r.Rsynch) / (float64(p+1) * (1 + r.Rinc + 2*r.Rcheck))
}

// TimeRatioLimitNarrowElapsed is the large-n narrow-domain (m = p+1) limit
// of TimeRatio under the elapsed-time convention:
//
//	R → p(2 + Rsynch) / ((p+1)(1 + Rinc + 2·Rcheck))
func TimeRatioLimitNarrowElapsed(p int, r Ratios) float64 {
	return float64(p) * (2 + r.Rsynch) / (float64(p+1) * (1 + r.Rinc + 2*r.Rcheck))
}

// TimeRatioLimitSquare returns the large-n limit for a square domain m = n
// (equation 7):
//
//	R → 1 / (1 + Rinc + 2·Rcheck)
//
// End effects vanish, global synchronizations grow only as n+m-1 while work
// grows as mn, so pre-scheduling becomes (slightly) preferable.
func TimeRatioLimitSquare(r Ratios) float64 {
	return 1 / (1 + r.Rinc + 2*r.Rcheck)
}

// DenseTriangular returns the load-balance-limited efficiencies of solving
// an n×n dense unit-diagonal triangular system on n-1 processors (§4.2's
// extreme example): self-execution pipelines to time Tsaxpy·(n-1) while
// pre-scheduling obtains no parallelism at all.
func DenseTriangular(n int) (selfExec, preSched float64) {
	// Sequential work: n(n-1)/2 saxpy pairs.
	seq := float64(n*(n-1)) / 2
	selfExec = seq / (float64(n-1) * float64(n-1))
	preSched = seq / (float64(n-1) * seq)
	return selfExec, preSched
}

// ProjectEfficiency scales a measured 16-processor decomposition to a
// larger machine, as in Table 4: the symbolically estimated (load balance)
// efficiency is recomputed for the target processor count by the caller,
// while the non-load-balance losses measured at 16 processors are assumed
// constant. Given bestEff (efficiency with perfect balance, overheads only)
// and symbolic efficiency at the target P, the projected efficiency is
// their product.
func ProjectEfficiency(bestEff, symbolicEff float64) float64 {
	return bestEff * symbolicEff
}

// ApproxEqual reports whether two efficiencies agree within tol.
func ApproxEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
