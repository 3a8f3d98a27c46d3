package mat

import "sync"

// Inverse is the explicit inverse M = (A + σI)⁻¹ of a shifted symmetric
// positive-definite matrix, the operator of every ADMM x-update: a
// product's outputs are independent, so its lanes can be outputs, where a
// substitution vectorises only across right-hand sides (DESIGN.md §6). M is
// row-major with leading dimension ld (n rounded up to 8) and zero outside
// its leading n×n block, so every tile of both products is whole.
type Inverse struct {
	n, ld int
	m     []float64 // ld×ld
}

// inverseScratch recycles NewInverse's scratch, the factor's and then L⁻¹'s:
// a fit builds one inverse per bootstrap, and only M outlives it.
var inverseScratch = sync.Pool{New: func() any { return new([]float64) }}

// NewInverse returns M = (a + shift·I)⁻¹ for a symmetric a, as L⁻ᵀL⁻¹ from
// the Cholesky factor L of a + shift·I that NewCholeskyBlockedWorkers
// computes on the tile kernels (across at most workers goroutines). L⁻¹ is
// a forward substitution on the identity, four rows at a time, whose update
// from the rows above a block is the 4×8 tile; M is then the Gram of L⁻¹ by
// the same tile, each entry summed over rows from its own index down, its
// 8-row bands dealt to the workers cyclically. The factor lives in M's
// buffer until M overwrites it, so only M is allocated. a is not modified.
func NewInverse(a *Dense, shift float64, workers int) (*Inverse, error) {
	return newInverse(a, shift, workers, best)
}

// newInverse is NewInverse with the kernel family k, as gram.
func newInverse(a *Dense, shift float64, workers int, k kernel) (*Inverse, error) {
	if a.Rows != a.Cols {
		return nil, ErrShape
	}
	n := a.Rows
	ld := (n + 7) &^ 7
	inv := &Inverse{n: n, ld: ld, m: make([]float64, ld*ld)}
	l := inv.m[:n*n]
	copy(l, a.Data)
	for i := 0; i < n; i++ {
		l[i*n+i] += shift
	}
	buf := takePanel(&inverseScratch, max(ld*ld, factorScratch(n, workers)))
	defer inverseScratch.Put(buf)
	if factorBlocked(l, n, workers, k, *buf) >= 0 {
		return nil, ErrNotPD
	}
	// −Lᵀ goes above l's diagonal (L stays on and below it); w starts as I.
	w := (*buf)[:ld*ld]
	clear(w)
	for i := 0; i < n; i++ {
		for r := 0; r < i; r++ {
			l[r*n+i] = -l[i*n+r]
		}
		w[i*ld+i] = 1
	}
	lowerInverse(w, l, n, ld, k)
	clear(inv.m)
	inv.gramOf(w, clampWorkers(workers), k)
	return inv, nil
}

// lowerInverse overwrites w = I with L⁻¹ given t, the n×n factor with −Lᵀ
// above its diagonal: row i is (eᵢ − Σᵣ L[i][r]·row r) / L[i][i] over r < i
// in order. A block of four rows takes its terms from every row above it as
// 4×8 tiles (column block k needs rows k … i0−1 only: row r of L⁻¹ is zero
// past column r), then its own earlier rows and the division row by row.
// The last block's rows past n read t past its row ends; nothing reads them.
func lowerInverse(w, t []float64, n, ld int, kern kernel) {
	for i0 := 0; i0 < n; i0 += 4 {
		for k := 0; k < i0; k += 8 {
			tile(w[i0*ld+k:], ld, t[k*n+i0:], n, w[k*ld+k:], ld, i0-k, kern)
		}
		for i := i0; i < min(i0+4, n); i++ {
			row := w[i*ld : i*ld+i+1]
			for r := i0; r < i; r++ {
				a := t[r*n+i]
				for k, b := range w[r*ld : r*ld+r+1] {
					row[k] += float64(a * b)
				}
			}
			for k := range row {
				row[k] /= t[i*n+i]
			}
		}
	}
}

// gramOf sets M = WᵀW for the lower-triangular W = L⁻¹ over the upper
// triangle, 8 rows j … j+7 at a time, then mirrors it. A tile is summed over
// rows r ≥ max(j, k) of its corner (the terms above an entry's own index are
// exact zeros): the diagonal block takes a 4×8 tile per half, each from its
// own first row, and every block right of it one 8×8 tile from row k. The
// 8-row bands are dealt to at most workers goroutines cyclically (the band
// at row j has n−j columns); every entry is one tile's sum wherever it runs.
func (v *Inverse) gramOf(w []float64, workers int, kern kernel) {
	n, ld, m := v.n, v.ld, v.m
	bands := (n + 7) / 8
	nWorkers := min(workers, bands)
	// n³/6 is the madd count of the product.
	if n*n*n/6 < gemmParallelFlops {
		nWorkers = 1
	}
	pass := func(t int) {
		for j := t * 8; j < n; j += nWorkers * 8 {
			for h := j; h < min(j+8, n); h += 4 {
				tile(m[h*ld+j:], ld, w[h*ld+h:], ld, w[h*ld+j:], ld, n-h, kern)
			}
			for k := j + 8; k < n; k += 8 {
				tile8(m[j*ld+k:], ld, w[k*ld+j:], ld, w[k*ld+k:], ld, n-k, kern)
			}
		}
	}
	forEachWorker(nWorkers, pass)
	for j := 0; j < n; j++ {
		for k := j + 1; k < n; k++ {
			m[k*ld+j] = m[j*ld+k]
		}
	}
}

// MulVec sets dst = M·src (n entries each). Output k is Σᵣ src[r]·M[r][k]
// summed from zero over r in order; 32 outputs at a time (64 on AVX-512)
// are the lanes of one accumulator row.
func (v *Inverse) MulVec(dst, src []float64) { v.mulVec(dst, src, best) }

func (v *Inverse) mulVec(dst, src []float64, kern kernel) {
	n, ld := v.n, v.ld
	if len(dst) < n || len(src) < n {
		panic(ErrShape)
	}
	width := 32
	if kern == avx512 && ld >= 64 {
		width = 64
	}
	var acc [64]float64
	for k := 0; k < n; k += width {
		// On a vector path a short last block starts early enough to be
		// width lanes wide: the outputs it repeats are the same sums, same
		// bits.
		k0 := k
		if kern != portable && ld >= width {
			k0 = min(k, ld-width)
		}
		lanes := acc[:min(width, ld-k0)]
		clear(lanes)
		switch {
		case len(lanes) == 64:
			gemvTile1x64(&lanes[0], &v.m[k0], ld, &src[0], n)
		case kern != portable && len(lanes) == 32:
			gemvTile1x32(&lanes[0], &v.m[k0], ld, &src[0], n)
		default:
			for g := 0; g < len(lanes); g += 8 {
				dot8(lanes[g:], src, 1, v.m[k0+g:], ld, n)
			}
		}
		copy(dst[k:min(k+width, n)], lanes[k-k0:])
	}
}

// MulPanel sets dst = M·src on the leading cols columns (a multiple of 8) of
// two row-major panels with row stride stride: src has n rows, dst n rounded
// up to 4. Column e of dst is bit for bit MulVec of column e of src — the
// same products (M is symmetric) summed in the same order from zero. Rows
// run 8 at a time, and a last block of 4 — dst's rows stop there — as a
// 4-row tile.
func (v *Inverse) MulPanel(dst, src []float64, stride, cols int) {
	v.mulPanel(dst, src, stride, cols, best)
}

func (v *Inverse) mulPanel(dst, src []float64, stride, cols int, kern kernel) {
	if cols%8 != 0 || cols > stride {
		panic(ErrShape)
	}
	rows := (v.n + 3) &^ 3
	clear(dst[:rows*stride])
	k := 0
	for ; k+8 <= rows; k += 8 {
		for e := 0; e < cols; e += 8 {
			tile8(dst[k*stride+e:], stride, v.m[k:], v.ld, src[e:], stride, v.n, kern)
		}
	}
	for ; k < rows; k += 4 {
		for e := 0; e < cols; e += 8 {
			tile(dst[k*stride+e:], stride, v.m[k:], v.ld, src[e:], stride, v.n, kern)
		}
	}
}

// tile adds Σᵣ w[r·ldw+jj]·x[r·ldx+kk] over r < m, in that order, to
// c[jj·ldc+kk] for jj < 4 and kk < 8 with kernel family k (valid only up to
// best): gramTile4x8 on either vector family, four portable dot8 rows
// otherwise. They round alike, so a result's bits do not depend on the
// family.
func tile(c []float64, ldc int, w []float64, ldw int, x []float64, ldx, m int, k kernel) {
	if m == 0 {
		return
	}
	_, _, _ = c[3*ldc+7], w[(m-1)*ldw+3], x[(m-1)*ldx+7] // keep the assembly in bounds
	if k != portable {
		gramTile4x8(&c[0], ldc, &w[0], ldw, &x[0], ldx, m)
		return
	}
	for jj := 0; jj < 4; jj++ {
		dot8(c[jj*ldc:], w[jj:], ldw, x, ldx, m)
	}
}

// tile8 is tile over 8 rows, jj < 8: one gramTile8x8 on avx512, two 4-row
// tiles otherwise.
func tile8(c []float64, ldc int, w []float64, ldw int, x []float64, ldx, m int, k kernel) {
	if m == 0 {
		return
	}
	if k != avx512 {
		tile(c, ldc, w, ldw, x, ldx, m, k)
		tile(c[4*ldc:], ldc, w[4:], ldw, x, ldx, m, k)
		return
	}
	_, _, _ = c[7*ldc+7], w[(m-1)*ldw+7], x[(m-1)*ldx+7] // keep the assembly in bounds
	gramTile8x8(&c[0], ldc, &w[0], ldw, &x[0], ldx, m)
}

// dot8 adds Σᵣ w[r·ldw]·x[r·ldx+kk] over r < m, in that order, to c[kk] for
// kk < 8, one rounded product and one rounded sum per term: the portable
// tile row and the oracle of every vector tile.
func dot8(c, w []float64, ldw int, x []float64, ldx, m int) {
	c0, c1, c2, c3, c4, c5, c6, c7 := c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]
	for r := 0; r < m; r++ {
		a, xr := w[r*ldw], x[r*ldx:r*ldx+8:r*ldx+8]
		c0 += float64(a * xr[0])
		c1 += float64(a * xr[1])
		c2 += float64(a * xr[2])
		c3 += float64(a * xr[3])
		c4 += float64(a * xr[4])
		c5 += float64(a * xr[5])
		c6 += float64(a * xr[6])
		c7 += float64(a * xr[7])
	}
	c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7] = c0, c1, c2, c3, c4, c5, c6, c7
}
