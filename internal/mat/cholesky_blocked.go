package mat

import (
	"math"
)

// cholBlock is the panel width of the blocked factorization. 96 columns
// keeps the panel resident in L2 while the trailing update runs as GEMM.
const cholBlock = 96

// NewCholeskyBlockedWorkers factors a symmetric positive-definite matrix
// with the right-looking blocked algorithm: factor a diagonal panel,
// triangular-solve the panel below it, then apply the (parallel)
// trailing-submatrix update L21·L21ᵀ. The trailing update is GEMM-shaped —
// the same reason the paper's implementation leans on MKL for its
// factorizations — and runs across at most `workers` goroutines (≤0
// selects DefaultWorkers).
//
// Results are numerically identical in structure to NewCholesky (same
// algorithm, different loop order); the small-matrix path falls through to
// the unblocked code.
func NewCholeskyBlockedWorkers(a *Dense, workers int) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, ErrShape
	}
	l := append([]float64(nil), a.Data...)
	if err := factorBlocked(l, a.Rows, workers); err != nil {
		return nil, err
	}
	return newCholesky(a.Rows, l), nil
}

// factorBlocked overwrites the lower triangle of the n×n matrix in l with
// NewCholeskyBlockedWorkers's factor: unblocked up to 2·cholBlock, blocked
// above.
func factorBlocked(l []float64, n, workers int) error {
	if n <= cholBlock*2 {
		return factorUnblocked(l, n)
	}
	tr := tracer()
	sp := tr.Start("mat/chol")
	defer sp.End()
	w := clampWorkers(workers)
	for k := 0; k < n; k += cholBlock {
		kb := cholBlock
		if k+kb > n {
			kb = n - k
		}
		// 1. Factor the diagonal panel A[k:k+kb, k:k+kb] in place
		//    (unblocked, small).
		if err := cholPanel(l, n, k, kb); err != nil {
			return err
		}
		if k+kb == n {
			break
		}
		// 2. Triangular solve the sub-panel: L21 = A21 · L11⁻ᵀ.
		trsmRight(l, n, k, kb, w)
		// 3. Trailing update: A22 −= L21 · L21ᵀ (parallel over row blocks).
		trailingUpdate(l, n, k, kb, w)
	}
	return nil
}

// cholPanel factors the kb×kb diagonal block at (k, k), unblocked.
func cholPanel(l []float64, n, k, kb int) error {
	for j := k; j < k+kb; j++ {
		d := l[j*n+j]
		for t := k; t < j; t++ {
			v := l[j*n+t]
			d -= float64(v * v)
		}
		if d <= 0 || d != d {
			return ErrNotPD
		}
		d = math.Sqrt(d)
		l[j*n+j] = d
		inv := 1 / d
		for i := j + 1; i < k+kb; i++ {
			s := l[i*n+j]
			for t := k; t < j; t++ {
				s -= float64(l[i*n+t] * l[j*n+t])
			}
			l[i*n+j] = s * inv
		}
	}
	return nil
}

// trsmRight computes L21 = A21 · L11⁻ᵀ for rows k+kb..n-1, columns k..k+kb-1.
func trsmRight(l []float64, n, k, kb, workers int) {
	lo := k + kb
	body := func(rLo, rHi int) {
		for i := rLo; i < rHi; i++ {
			row := l[i*n:]
			for j := k; j < k+kb; j++ {
				s := row[j]
				diagRow := l[j*n:]
				for t := k; t < j; t++ {
					s -= float64(row[t] * diagRow[t])
				}
				row[j] = s / diagRow[j]
			}
		}
	}
	if (n-lo)*kb >= parallelThreshold && workers > 1 {
		parallelForRange(lo, n, workers, body)
	} else {
		body(lo, n)
	}
}

// trailingUpdate computes A22 −= L21 · L21ᵀ over the lower triangle only.
func trailingUpdate(l []float64, n, k, kb, workers int) {
	lo := k + kb
	body := func(rLo, rHi int) {
		for i := rLo; i < rHi; i++ {
			li := l[i*n+k : i*n+k+kb]
			// Only the lower triangle (j ≤ i) is referenced later.
			for j := lo; j <= i; j++ {
				lj := l[j*n+k : j*n+k+kb]
				s := 0.0
				for t := range li {
					s += float64(li[t] * lj[t])
				}
				l[i*n+j] -= s
			}
		}
	}
	if (n-lo)*(n-lo)/2*kb >= parallelThreshold && workers > 1 {
		parallelForRange(lo, n, workers, body)
	} else {
		body(lo, n)
	}
}
