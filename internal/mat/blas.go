package mat

import "math"

// parallelThreshold is the minimum flop count (multiply-adds) before a
// vector kernel (GEMV, Gram accumulation) bothers spawning goroutines.
const parallelThreshold = 16 * 1024

// gemmParallelFlops is the minimum multiply-add count before a matrix
// product (MulABtTo) spawns goroutines. Its work is m·n·k, NOT the output
// size m·n — gating on the output alone leaves tall-skinny products (small
// m·n, huge inner dimension k) permanently serial.
const gemmParallelFlops = 1 << 20

// axpy computes y += a*x with 4-way unrolling.
func axpy(y []float64, a float64, x []float64) {
	n := len(y)
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] += float64(a * x[i])
		y[i+1] += float64(a * x[i+1])
		y[i+2] += float64(a * x[i+2])
		y[i+3] += float64(a * x[i+3])
	}
	for ; i < n; i++ {
		y[i] += float64(a * x[i])
	}
}

// MulVec computes y = A·x with the default worker budget.
func MulVec(a *Dense, x []float64) []float64 { return MulVecWorkers(a, x, 0) }

// MulVecWorkers is MulVec with an explicit kernel worker budget (≤0 selects
// DefaultWorkers).
func MulVecWorkers(a *Dense, x []float64, workers int) []float64 {
	if a.Cols != len(x) {
		panic(ErrShape)
	}
	tr := tracer()
	sp := tr.Start("mat/gemv")
	w := clampWorkers(workers)
	y := make([]float64, a.Rows)
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y[i] = Dot(a.Row(i), x)
		}
	}
	// a.Rows·a.Cols is the madd count of the product — already a flop gate.
	if a.Rows >= 2 && a.Rows*a.Cols >= parallelThreshold && w > 1 {
		tr.SetMax("mat/workers", int64(w))
		parallelFor(a.Rows, w, body)
	} else {
		body(0, a.Rows)
	}
	sp.End()
	return y
}

// MulABtWorkers computes A·Bᵀ without materializing the transpose: both
// operands are walked row-major (out[i][j] = ⟨a_i, b_j⟩), which is the
// cache-friendly layout for the inference server's batched forecast GEMM
// (request rows × coefficient rows). Each output row is a pure function of
// its own input row — independent of the worker count and of how many other
// rows share the call — so a batch-of-N product is bit-identical, row for
// row, to N batch-of-1 products.
func MulABtWorkers(a, b *Dense, workers int) *Dense {
	c := NewDense(a.Rows, b.Rows)
	MulABtTo(c, a, b, workers)
	return c
}

// MulABtTo is MulABtWorkers writing into c (a.Rows×b.Rows, overwritten), so
// a caller that repeats the product can reuse one output buffer. Panics on
// shape mismatch.
func MulABtTo(c, a, b *Dense, workers int) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic(ErrShape)
	}
	tr := tracer()
	sp := tr.Start("mat/gemm_abt")
	w := clampWorkers(workers)
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			crow := c.Row(i)
			for j := 0; j < b.Rows; j++ {
				crow[j] = Dot(arow, b.Row(j))
			}
		}
	}
	if a.Rows >= 2 && a.Rows*b.Rows*a.Cols >= gemmParallelFlops && w > 1 {
		tr.SetMax("mat/workers", int64(w))
		parallelFor(a.Rows, w, body)
	} else {
		body(0, a.Rows)
	}
	sp.End()
}

// Dot returns xᵀy.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(ErrShape)
	}
	var s0, s1, s2, s3 float64
	i := 0
	n := len(x)
	for ; i+4 <= n; i += 4 {
		s0 += float64(x[i] * y[i])
		s1 += float64(x[i+1] * y[i+1])
		s2 += float64(x[i+2] * y[i+2])
		s3 += float64(x[i+3] * y[i+3])
	}
	s := s0 + s1 + s2 + s3
	for ; i < n; i++ {
		s += float64(x[i] * y[i])
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	// Scaled accumulation avoids overflow for extreme values.
	max := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	if max == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		r := v / max
		s += float64(r * r)
	}
	return max * math.Sqrt(s)
}

// Norm1 returns the ℓ1 norm of x.
func Norm1(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}

// NormInf returns the ℓ∞ norm of x.
func NormInf(x []float64) float64 {
	max := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// Axpy computes y += a*x (exported convenience over the internal kernel).
func Axpy(y []float64, a float64, x []float64) {
	if len(x) != len(y) {
		panic(ErrShape)
	}
	axpy(y, a, x)
}

// Sub returns x - y as a new slice.
func Sub(x, y []float64) []float64 {
	if len(x) != len(y) {
		panic(ErrShape)
	}
	out := make([]float64, len(x))
	for i := range x {
		out[i] = x[i] - y[i]
	}
	return out
}

// ScaleVec multiplies x by a in place.
func ScaleVec(x []float64, a float64) {
	for i := range x {
		x[i] *= a
	}
}
