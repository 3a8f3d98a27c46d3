package mat

import "math"

// blockSize is the cache-blocking tile edge for GEMM. 64 float64 rows/cols
// keeps three tiles (≈96 KiB) within L2 on typical cores, mirroring the
// MKL-style blocking the paper relies on for the compute phase.
const blockSize = 64

// parallelThreshold is the minimum flop count (multiply-adds) before a
// vector kernel (GEMV, Gram accumulation) bothers spawning goroutines.
const parallelThreshold = 16 * 1024

// gemmParallelFlops is the minimum multiply-add count before GEMM spawns
// goroutines. GEMM work is m·n·k, NOT the output size m·n — gating on the
// output alone left tall-skinny products (small m·n, huge inner dimension
// k) permanently serial. 1M madds corresponds to the old m·n = 16384 gate
// at the typical k ≈ 64 of the pipeline's Gram-sized products, so square-ish
// behavior is unchanged while k-dominated shapes now parallelize.
const gemmParallelFlops = 1 << 20

// Mul computes C = A·B with the default worker budget. Panics on shape
// mismatch.
func Mul(a, b *Dense) *Dense { return MulWorkers(a, b, 0) }

// MulWorkers is Mul with an explicit kernel worker budget (≤0 selects
// DefaultWorkers). Callers running inside wider parallelism — mpi rank
// goroutines, bootstrap workers — pass their share of the machine.
func MulWorkers(a, b *Dense, workers int) *Dense {
	if a.Cols != b.Rows {
		panic(ErrShape)
	}
	c := NewDense(a.Rows, b.Cols)
	gemm(c, a, b, clampWorkers(workers))
	return c
}

// gemm accumulates a·b into c using i-k-j loop order with row blocking.
func gemm(c, a, b *Dense, workers int) {
	m, k, n := a.Rows, a.Cols, b.Cols
	tr := tracer()
	sp := tr.Start("mat/gemm")
	body := func(lo, hi int) {
		for ii := lo; ii < hi; ii += blockSize {
			iMax := ii + blockSize
			if iMax > hi {
				iMax = hi
			}
			for kk := 0; kk < k; kk += blockSize {
				kMax := kk + blockSize
				if kMax > k {
					kMax = k
				}
				for i := ii; i < iMax; i++ {
					arow := a.Data[i*k : (i+1)*k]
					crow := c.Data[i*n : (i+1)*n]
					for p := kk; p < kMax; p++ {
						av := arow[p]
						if av == 0 {
							continue
						}
						brow := b.Data[p*n : (p+1)*n]
						axpy(crow, av, brow)
					}
				}
			}
		}
	}
	// Parallel gate on the flop count m·n·k (multiply-adds), not the output
	// size: a 32×4096 · 4096×32 product is 4M madds of work even though the
	// output is only 1024 elements. Splitting needs at least 2 rows.
	if m >= 2 && m*n*k >= gemmParallelFlops && workers > 1 {
		tr.SetMax("mat/workers", int64(workers))
		parallelFor(m, workers, body)
	} else {
		body(0, m)
	}
	sp.End()
}

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

// MulTVec computes y = Aᵀ·x without forming the transpose.
func MulTVec(a *Dense, x []float64) []float64 { return MulTVecWorkers(a, x, 0) }

// MulTVecWorkers is MulTVec under the signature of the budgeted kernels: the
// all-rows case of GramVec, which explains why the budget is not used.
func MulTVecWorkers(a *Dense, x []float64, _ int) []float64 {
	return GramVec(a, x, Sample{})
}

// MulABt computes A·Bᵀ with the default worker budget.
func MulABt(a, b *Dense) *Dense { return MulABtWorkers(a, b, 0) }

// MulABtWorkers computes A·Bᵀ without materializing the transpose: both
// operands are walked row-major (out[i][j] = ⟨a_i, b_j⟩), which is the
// cache-friendly layout for the inference server's batched forecast GEMM
// (request rows × coefficient rows). Each output row is a pure function of
// its own input row — independent of the worker count and of how many other
// rows share the call — so a batch-of-N product is bit-identical, row for
// row, to N batch-of-1 products.
func MulABtWorkers(a, b *Dense, workers int) *Dense {
	if a.Cols != b.Cols {
		panic(ErrShape)
	}
	tr := tracer()
	sp := tr.Start("mat/gemm_abt")
	w := clampWorkers(workers)
	c := NewDense(a.Rows, b.Rows)
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
	return c
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

// Add returns x + y as a new slice.
func Add(x, y []float64) []float64 {
	if len(x) != len(y) {
		panic(ErrShape)
	}
	out := make([]float64, len(x))
	for i := range x {
		out[i] = x[i] + y[i]
	}
	return out
}

// ScaleVec multiplies x by a in place.
func ScaleVec(x []float64, a float64) {
	for i := range x {
		x[i] *= a
	}
}
