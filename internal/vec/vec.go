// Package vec provides the sequential dense vector kernels of the
// preconditioned Krylov methods: SAXPY operations, inner products and
// norms. internal/krylov runs them in parallel, over fixed blocks of a
// vector, as column passes on the executor's one worker set.
//
// Every product is rounded before it is added (the explicit float64
// conversions): the Go spec forbids fusing across the conversion, so no
// architecture computes a fused multiply-add and every one returns the
// same bits (TestNoFusedMultiplyAdd in internal/trisolve).
package vec

import "math"

// Axpy computes y += alpha*x element-wise. x and y must have equal length.
func Axpy(alpha float64, x, y []float64) {
	for i := range y {
		y[i] += float64(alpha * x[i])
	}
}

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	s := 0.0
	for i := range x {
		s += float64(x[i] * y[i])
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 { return math.Sqrt(Dot(x, x)) }

// NormInf returns the maximum absolute entry of x.
func NormInf(x []float64) float64 {
	m := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Scale multiplies x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Copy copies src into dst (lengths must match).
func Copy(dst, src []float64) { copy(dst, src) }

// Fill sets every element of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// Sub computes z = x - y element-wise.
func Sub(z, x, y []float64) {
	for i := range z {
		z[i] = x[i] - y[i]
	}
}

// MaxAbsDiff returns the maximum absolute element-wise difference between
// x and y; useful for comparing executor outputs against a sequential
// reference.
func MaxAbsDiff(x, y []float64) float64 {
	m := 0.0
	for i := range x {
		if d := math.Abs(x[i] - y[i]); d > m {
			m = d
		}
	}
	return m
}
