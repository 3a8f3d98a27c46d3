package mat

import (
	"math"
	"sync"
)

// cholBlock is the panel width of the blocked factorization. 96 columns
// keeps the panel resident in L2 while the trailing update runs as GEMM.
// The trailing update sums each panel's products before it subtracts them,
// so the width is part of the factor's bits.
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
	buf := takePanel(&factorPanels, factorScratch(a.Rows, workers))
	bad := factorBlocked(l, a.Rows, workers, best, *buf)
	factorPanels.Put(buf)
	if bad >= 0 {
		return nil, ErrNotPD
	}
	return newCholesky(a.Rows, l), nil
}

// factorPanels recycles the factor's scratch: a fit factors once per cell,
// and SolveSPDInPlace must not allocate.
var factorPanels = sync.Pool{New: func() any { return new([]float64) }}

// panelScratch is the scratch cholPanel needs for a kb-wide block: its
// transpose and the negated operand of its tiles.
func panelScratch(kb int) int {
	ld := (kb + 7) &^ 7
	return ld*ld + ld*8
}

// factorUnblocked is cholPanel over the whole n×n matrix l, with scratch
// from factorPanels.
func factorUnblocked(l []float64, n int, kern kernel) int {
	buf := takePanel(&factorPanels, panelScratch(n))
	bad := cholPanel(l, n, 0, n, kern, *buf)
	factorPanels.Put(buf)
	return bad
}

// factorScratch is the scratch factorBlocked needs for an n×n matrix at the
// budget workers: the diagonal block's, then the first (tallest) sub-panel
// L21ᵀ, −L11ᵀ and a band scratch per worker.
func factorScratch(n, workers int) int {
	if n <= cholBlock*2 {
		return panelScratch(n)
	}
	ldr := (n - cholBlock + 7) &^ 7
	return panelScratch(cholBlock) + cholBlock*(ldr+cholBlock) + clampWorkers(workers)*ldr*8
}

// factorBlocked overwrites the lower triangle of the n×n matrix in l with
// NewCholeskyBlockedWorkers's factor, with kernel family kern and
// factorScratch(n, workers) entries of scratch: unblocked up to
// 2·cholBlock, blocked above. It returns the first column whose pivot is
// not positive (or is NaN), or −1.
//
// Every stage runs its inner sums as tiles on packed panels and keeps the
// scalar algorithm's order. The trailing update sums a panel's products
// from zero and subtracts once, so it is a Gram of the transposed panel.
// The panel factor and the triangular solve subtract one product at a time;
// they tile-add against a negated operand instead, since a − b is a + (−b)
// and (−u)·v is −(u·v) exactly (DESIGN.md §6).
func factorBlocked(l []float64, n, workers int, kern kernel, scratch []float64) int {
	if n <= cholBlock*2 {
		return cholPanel(l, n, 0, n, kern, scratch)
	}
	tr := tracer()
	sp := tr.Start("mat/chol")
	defer sp.End()
	w := clampWorkers(workers)
	diag := panelScratch(cholBlock)
	for k := 0; k < n; k += cholBlock {
		kb := min(cholBlock, n-k)
		// 1. Factor the diagonal panel A[k:k+kb, k:k+kb] in place.
		if bad := cholPanel(l, n, k, kb, kern, scratch); bad >= 0 {
			return bad
		}
		if k+kb == n {
			break
		}
		// 2. Triangular solve the sub-panel, L21 = A21 · L11⁻ᵀ, into the
		//    transposed panel L21ᵀ; 3. the trailing update A22 −= L21·L21ᵀ
		//    from it.
		rows := n - k - kb
		ldr := (rows + 7) &^ 7
		panel := scratch[diag : diag+kb*ldr]
		neg := scratch[diag+kb*ldr : diag+kb*(ldr+cholBlock)]
		trsmRight(l, n, k, kb, panel, ldr, neg, w, kern)
		trailingUpdate(l, n, k, kb, panel, ldr, scratch[diag+kb*(ldr+cholBlock):], w, kern)
	}
	return -1
}

// cholPanel factors the kb×kb diagonal block at (k, k) of the n×n row-major
// l in place, on and below its diagonal, with panelScratch(kb) entries of
// scratch, and returns the first (absolute) column whose pivot is not
// positive or is NaN, or −1; on failure the block is left part-factored.
// Entry (i, j) is a_ij − Σₜ l_it·l_jt over the block's columns t < j in
// order, each product rounded and subtracted, and l_jj is its square root,
// the column below it scaled by the reciprocal.
//
// The block is factored in its transpose (column j of L is row j of lt),
// 8 columns at a time: a column block first takes the columns to its left
// as tiles against their negation, lanes across rows i, then its own
// earlier columns, the pivot and the scaling entry by entry.
func cholPanel(l []float64, n, k, kb int, kern kernel, scratch []float64) int {
	ld := (kb + 7) &^ 7
	lt, neg := scratch[:ld*ld], scratch[ld*ld:ld*ld+ld*8]
	// Transpose the lower triangle in (and, below, out) 8 columns at a
	// time, so the 8 rows of lt it walks stay in cache.
	for j0 := 0; j0 < kb; j0 += 8 {
		for i := j0; i < kb; i++ {
			row := l[(k+i)*n+k:]
			for j := j0; j < min(j0+8, i+1); j++ {
				lt[j*ld+i] = row[j]
			}
		}
	}
	for j0 := 0; j0 < kb; j0 += 8 {
		if j0 > 0 {
			// neg[t][jj] = −l_{j0+jj, t}, the tiles' w operand.
			for t := 0; t < j0; t++ {
				src, dst := lt[t*ld+j0:t*ld+j0+8], neg[t*8:t*8+8]
				for jj, v := range src {
					dst[jj] = -v
				}
			}
			for i0 := j0; i0 < kb; i0 += 8 {
				tile8(lt[j0*ld+i0:], ld, neg, 8, lt[i0:], ld, j0, kern)
			}
		}
		for j := j0; j < min(j0+8, kb); j++ {
			col := lt[j*ld+j : j*ld+kb]
			for t := j0; t < j; t++ {
				ct := lt[t*ld+j : t*ld+kb]
				v := ct[0]
				for i, u := range ct {
					col[i] -= float64(u * v)
				}
			}
			d := col[0]
			if d <= 0 || d != d {
				return k + j
			}
			d = math.Sqrt(d)
			col[0] = d
			inv := 1 / d
			for i := 1; i < len(col); i++ {
				col[i] *= inv
			}
		}
	}
	for j0 := 0; j0 < kb; j0 += 8 {
		for i := j0; i < kb; i++ {
			row := l[(k+i)*n+k:]
			for j := j0; j < min(j0+8, i+1); j++ {
				row[j] = lt[j*ld+i]
			}
		}
	}
	return -1
}

// trsmRight computes L21 = A21 · L11⁻ᵀ for rows k+kb…n−1, columns k…k+kb−1,
// into panel (kb rows of stride ldr: panel[t][i] is l[k+kb+i][k+t]) and
// back into l. Entry (i, j) is (a_ij − Σₜ l_it·l_jt) / l_jj over t < j in
// order. Each 8-column block takes the columns to its left as tiles
// against neg = −L11ᵀ, lanes across rows i, then its own earlier columns
// and the division entry by entry. Rows split into 8-row groups over the
// workers, each of which owns its rows' entries.
func trsmRight(l []float64, n, k, kb int, panel []float64, ldr int, neg []float64, workers int, kern kernel) {
	lo, rows := k+kb, n-k-kb
	const ldn = cholBlock
	for t := 0; t < kb; t++ {
		for j := t + 1; j < kb; j++ {
			neg[t*ldn+j] = -l[(k+j)*n+k+t]
		}
	}
	body := func(g0, g1 int) {
		ia, ib := g0*8, min(g1*8, rows)
		// Pack (and, below, unpack) 8 rows at a time.
		for i0 := ia; i0 < ib; i0 += 8 {
			for t := 0; t < kb; t++ {
				for i := i0; i < min(i0+8, ib); i++ {
					panel[t*ldr+i] = l[(lo+i)*n+k+t]
				}
			}
		}
		for j0 := 0; j0 < kb; j0 += 8 {
			if j0 > 0 {
				for i0 := ia; i0 < ib; i0 += 8 {
					tile8(panel[j0*ldr+i0:], ldr, neg[j0:], ldn, panel[i0:], ldr, j0, kern)
				}
			}
			for j := j0; j < min(j0+8, kb); j++ {
				dj, col := l[(k+j)*n+k:], panel[j*ldr+ia:j*ldr+ib]
				for t := j0; t < j; t++ {
					v, ct := dj[t], panel[t*ldr+ia:t*ldr+ib]
					for i, u := range ct {
						col[i] -= float64(u * v)
					}
				}
				d := dj[j]
				for i := range col {
					col[i] /= d
				}
			}
		}
		for i0 := ia; i0 < ib; i0 += 8 {
			for t := 0; t < kb; t++ {
				for i := i0; i < min(i0+8, ib); i++ {
					l[(lo+i)*n+k+t] = panel[t*ldr+i]
				}
			}
		}
	}
	groups := (rows + 7) / 8
	if rows*kb*kb/2 >= parallelThreshold && workers > 1 {
		parallelFor(groups, workers, body)
	} else {
		body(0, groups)
	}
}

// trailingUpdate computes A22 −= L21 · L21ᵀ over the lower triangle from the
// transposed panel L21ᵀ (kb rows of stride ldr): entry (i, j), j ≤ i, has
// Σₜ l_it·l_jt summed from zero over the panel's columns in order
// subtracted once. It is the Gram of the panel: bands of 8 columns j, dealt
// to the workers cyclically (a band's column is shorter the further right
// it lies), each summed by whole tiles into the worker's ldr×8 share of
// scratch (one share per worker of the budget), rows i from the band's
// first on, and subtracted from its rows of l.
func trailingUpdate(l []float64, n, k, kb int, panel []float64, ldr int, scratch []float64, workers int, kern kernel) {
	lo, rows := k+kb, n-k-kb
	bands := (rows + 7) / 8
	nWorkers := min(workers, bands)
	if rows*rows/2*kb < parallelThreshold {
		nWorkers = 1
	}
	pass := func(w int) {
		s := scratch[w*ldr*8 : (w+1)*ldr*8] // s[i][jj]: row i, column j0+jj
		for b := w; b < bands; b += nWorkers {
			j0 := b * 8
			clear(s[j0*8:])
			for i0 := j0; i0 < rows; i0 += 8 {
				tile8(s[i0*8:], 8, panel[i0:], ldr, panel[j0:], ldr, kb, kern)
			}
			for i := j0; i < rows; i++ {
				li := l[(lo+i)*n+lo+j0 : (lo+i)*n+lo+min(j0+8, i+1)]
				for jj := range li {
					li[jj] -= s[i*8+jj]
				}
			}
		}
	}
	forEachWorker(nWorkers, pass)
}
