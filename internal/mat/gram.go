package mat

import "sync"

// Sample names the part of a matrix a Gram product is taken over, so that a
// bootstrap or a train/evaluation split is summed from the original rows in
// place instead of from a gathered copy. The zero value is the whole matrix.
type Sample struct {
	// Rows lists the row indices in summation order (repeats allowed); nil
	// means every row, in order.
	Rows []int
	// Weights holds one multiplier per summed row (Weights[i] goes with
	// Rows[i], or with row i when Rows is nil); nil means unit weights. A
	// bootstrap passes its distinct rows with their multiplicities.
	Weights []float64
	// Cols restricts the product to these columns, in this order; nil means
	// every column.
	Cols []int
}

// shape returns the number of summed rows and the number of columns.
func (s *Sample) shape(a *Dense) (n, p int) {
	n, p = a.Rows, a.Cols
	if s.Rows != nil {
		n = len(s.Rows)
	}
	if s.Cols != nil {
		p = len(s.Cols)
	}
	if s.Weights != nil && len(s.Weights) != n {
		panic(ErrShape)
	}
	return n, p
}

// AtA computes the Gram matrix AᵀA (symmetric, p×p) with the default worker
// budget. This is the dominant O(n·p²) kernel of the ADMM x-update setup.
func AtA(a *Dense) *Dense { return GramWorkers(a, Sample{}, 0) }

// AtAWorkers is AtA with an explicit kernel worker budget: the all-rows,
// unit-weight case of GramWorkers.
func AtAWorkers(a *Dense, workers int) *Dense { return GramWorkers(a, Sample{}, workers) }

const (
	// gramBand is the height of the bands of adjacent upper-triangle rows
	// the Gram kernel deals to its workers.
	gramBand = 8
	// gramChunk is how many input rows are packed into a panel at a time:
	// 64 rows keep a worker's 8-row band (4 KiB) and the 4 panel rows a tile
	// streams (2 KiB) in L1 and the whole panel of a 256-column matrix
	// (128 KiB) in L2. It does not affect the result's bits.
	gramChunk = 64
	// tileJ × tileK is the register tile: 8 accumulators, 6 operands.
	tileJ, tileK = 2, 4
)

// GramWorkers computes the weighted Gram matrix Σᵢ wᵢ·xᵢxᵢᵀ over the rows,
// weights and columns s names (symmetric, p×p for p columns), with an
// explicit kernel worker budget (≤0 selects DefaultWorkers).
//
// Workers own outputs, never a share of the reduction: the upper triangle is
// cut into bands of gramBand adjacent rows dealt to the workers cyclically
// (row j of the triangle is p−j long, so a contiguous split would leave one
// worker all the long rows), and every worker makes one pass over the input
// rows for its bands. Each c[j][k] (j ≤ k) is therefore the sum of
// (wᵢ·xᵢⱼ)·xᵢₖ accumulated one term at a time in s.Rows order at any budget
// and for any s.Cols, so the result's bits depend on neither: a column subset
// in ascending order is bitwise the sub-block of the full Gram, and unit
// weights over a row list are bitwise AtA of the gathered rows.
//
// The pass packs gramChunk rows at a time into a panel (a second panel holds
// w·x when there are weights) and accumulates register tiles from it. On
// amd64 CPUs with AVX2 the panel is row-major and a tile is 4×8 vector lanes
// (8×8 with AVX-512), one output entry each (gram_amd64.go); elsewhere the
// panel is transposed (one contiguous run of the chunk per column) and a
// tile is tileJ×tileK scalars. Every kernel adds the same rounded products in
// the same order, so their bits agree (DESIGN.md §6).
func GramWorkers(a *Dense, s Sample, workers int) *Dense {
	return gram(a, s, workers, best)
}

// gram is GramWorkers with the kernel family k (valid only up to best).
func gram(a *Dense, s Sample, workers int, k kernel) *Dense {
	n, p := s.shape(a)
	tr := tracer()
	sp := tr.Start("mat/ata")
	c := NewDense(p, p)
	nWorkers := clampWorkers(workers)
	if bands := (p + gramBand - 1) / gramBand; nWorkers > bands {
		nWorkers = bands
	}
	// n·p² is the madd count of the Gram accumulation.
	if n < 2 || n*p*p < parallelThreshold || nWorkers < 1 {
		nWorkers = 1
	}
	if nWorkers == 1 {
		gramPass(c, a, &s, 0, 1, k)
	} else {
		tr.SetMax("mat/workers", int64(nWorkers))
		parallelFor(nWorkers, nWorkers, func(lo, hi int) {
			for t := lo; t < hi; t++ {
				gramPass(c, a, &s, t, nWorkers, k)
			}
		})
	}
	// Mirror the upper triangle into the lower.
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			c.Data[j*p+i] = c.Data[i*p+j]
		}
	}
	sp.End()
	return c
}

// gramPass accumulates worker t's share with kernel family k.
func gramPass(c, a *Dense, s *Sample, t, nWorkers int, k kernel) {
	if k == portable {
		gramWorker(c, a, s, t, nWorkers)
		return
	}
	gramWorkerSIMD(c, a, s, t, nWorkers, k)
}

// gramPanels recycles the packed panels: a fit calls the kernel once per
// cell, and a 256-column panel pair is 256 KiB.
var gramPanels = sync.Pool{New: func() any { return new([]float64) }}

// gramPanelPair takes a panel pair for width columns from gramPanels: xs for
// x and ws for w·x, which is xs itself when there are no weights. The caller
// puts buf back.
func gramPanelPair(width int, weighted bool) (buf *[]float64, xs, ws []float64) {
	size := width * gramChunk
	if weighted {
		size *= 2
	}
	buf = gramPanels.Get().(*[]float64)
	if cap(*buf) < size {
		*buf = make([]float64, size)
	}
	xs = (*buf)[:width*gramChunk]
	ws = xs // unit weights: w·x is x
	if weighted {
		ws = (*buf)[width*gramChunk : size]
	}
	return buf, xs, ws
}

// gramWorker accumulates worker t's share of the upper triangle of the Gram
// into c: bands t, t+nWorkers, t+2·nWorkers, … in one pass over the rows. It
// is the portable kernel and the vector kernels' oracle.
func gramWorker(c, a *Dense, s *Sample, t, nWorkers int) {
	n, p := s.shape(a)
	first := t * gramBand // columns before the worker's first band are never read
	if first >= p || n == 0 {
		return
	}
	buf, xs, ws := gramPanelPair(p-first, s.Weights != nil)
	for r0 := 0; r0 < n; r0 += gramChunk {
		m := n - r0
		if m > gramChunk {
			m = gramChunk
		}
		// Pack: xs[(j−first)·m + r] = x[row r0+r][col j], ws likewise times w.
		for r := 0; r < m; r++ {
			i := r0 + r
			if s.Rows != nil {
				i = s.Rows[i]
			}
			row := a.Row(i)
			if s.Cols == nil {
				for j, v := range row[first:] {
					xs[j*m+r] = v
				}
			} else {
				for j, cj := range s.Cols[first:] {
					xs[j*m+r] = row[cj]
				}
			}
		}
		if s.Weights != nil {
			// Only the worker's own bands are read from the weighted panel.
			w := s.Weights[r0 : r0+m]
			for lo := first; lo < p; lo += nWorkers * gramBand {
				hi := lo + gramBand
				if hi > p {
					hi = p
				}
				for j := lo - first; j < hi-first; j++ {
					src, dst := xs[j*m:(j+1)*m], ws[j*m:(j+1)*m]
					for r, v := range src {
						dst[r] = w[r] * v
					}
				}
			}
		}
		for lo := first; lo < p; lo += nWorkers * gramBand {
			hi := lo + gramBand
			if hi > p {
				hi = p
			}
			gramBandChunk(c.Data, p, ws, xs, first, m, lo, hi)
		}
	}
	gramPanels.Put(buf)
}

// gramBandChunk adds one packed chunk of m rows to rows [lo, hi) of the upper
// triangle of c (stride p). Tiles run k-outer so the tileK panel rows are
// read once per band. A tile that straddles the diagonal also writes the few
// entries below it in the band's own rows; the caller's mirror pass
// overwrites them.
func gramBandChunk(c []float64, p int, ws, xs []float64, first, m, lo, hi int) {
	for k := lo; k < p; k += tileK {
		kn := p - k
		if kn > tileK {
			kn = tileK
		}
		for j := lo; j < hi && j < k+kn; j += tileJ {
			jn := hi - j
			if jn > tileJ {
				jn = tileJ
			}
			if jn == tileJ && kn == tileK {
				gramTile(c[j*p+k:j*p+k+tileK], c[(j+1)*p+k:(j+1)*p+k+tileK],
					ws[(j-first)*m:(j-first+tileJ)*m], xs[(k-first)*m:(k-first+tileK)*m], m)
				continue
			}
			// Edge of the matrix or of the band: one entry at a time, in the
			// same summation order.
			for jj := j; jj < j+jn; jj++ {
				wj := ws[(jj-first)*m : (jj-first+1)*m]
				for kk := k; kk < k+kn; kk++ {
					xk := xs[(kk-first)*m : (kk-first+1)*m]
					acc := c[jj*p+kk]
					for r, v := range wj {
						acc += float64(v * xk[r])
					}
					c[jj*p+kk] = acc
				}
			}
		}
	}
}

// gramTile accumulates the 2×4 tile c0[0:4], c1[0:4] += Σᵣ w[j][r]·x[k][r]
// over the m packed rows: w holds 2 panel rows of length m, x holds 4. The
// accumulators start from c, so the sum continues in row order across
// chunks. The loop takes the x operands one panel row at a time so that the
// 8 accumulators stay in registers (15 are usable on amd64; loading all six
// operands first makes the compiler spill two accumulators per iteration).
func gramTile(c0, c1, w, x []float64, m int) {
	w0, w1 := w[:m], w[m:2*m]
	x0, x1, x2, x3 := x[:m], x[m:2*m], x[2*m:3*m], x[3*m:4*m]
	c00, c01, c02, c03 := c0[0], c0[1], c0[2], c0[3]
	c10, c11, c12, c13 := c1[0], c1[1], c1[2], c1[3]
	for r := range w0 {
		a0, a1 := w0[r], w1[r]
		b := x0[r]
		c00 += float64(a0 * b)
		c10 += float64(a1 * b)
		b = x1[r]
		c01 += float64(a0 * b)
		c11 += float64(a1 * b)
		b = x2[r]
		c02 += float64(a0 * b)
		c12 += float64(a1 * b)
		b = x3[r]
		c03 += float64(a0 * b)
		c13 += float64(a1 * b)
	}
	c0[0], c0[1], c0[2], c0[3] = c00, c01, c02, c03
	c1[0], c1[1], c1[2], c1[3] = c10, c11, c12, c13
}

// MulAtB returns AᵀB (q×p) over the rows, weights and columns of A that s
// names, for an n×q A and an n×p B whose rows go with A's: entry (j, k) is
// Σᵣ (w_r·b_rk)·a_rj summed from zero over the rows in s.Rows order, one
// rounded product (two with a weight) and one rounded sum per row. Column k
// is therefore bit for bit GramVec of a with column k of b over s — the same
// products (a product does not depend on its operands' order) added in the
// same order — and a one-column B runs GramVec's loop. Whole 8×8 and 4×8
// blocks run the tiles on the row-major inputs — eight or four columns of A
// as their w operand, eight of B as their x operand — and the last q mod 4
// rows and p mod 8 columns add one input row at a time. A sample other than
// the whole matrix is packed gramChunk rows at a time (A's columns of s, and
// w·b), never gathered whole.
func MulAtB(a, b *Dense, s Sample) *Dense { return mulAtB(a, b, s, best) }

// mulAtB is MulAtB with the kernel family k, as gram.
func mulAtB(a, b *Dense, s Sample, k kernel) *Dense {
	if a.Rows != b.Rows {
		panic(ErrShape)
	}
	n, q := s.shape(a)
	if b.Cols == 1 {
		return NewDenseData(q, 1, GramVec(a, b.Data, s))
	}
	p := b.Cols
	sp := tracer().Start("mat/gemm_atb")
	c := NewDense(q, p)
	if s.Rows == nil && s.Weights == nil && s.Cols == nil {
		addAtB(c, a, b, k)
		sp.End()
		return c
	}
	m := min(n, gramChunk)
	pa, pb := NewDense(m, q), NewDense(m, p)
	for r0 := 0; r0 < n; r0 += m {
		pa.Rows = min(m, n-r0)
		pb.Rows = pa.Rows
		for r := 0; r < pa.Rows; r++ {
			i := r0 + r
			if s.Rows != nil {
				i = s.Rows[i]
			}
			ar, dst := a.Row(i), pa.Row(r)
			if s.Cols == nil {
				copy(dst, ar)
			} else {
				for jj, j := range s.Cols {
					dst[jj] = ar[j]
				}
			}
			if s.Weights == nil {
				copy(pb.Row(r), b.Row(i))
				continue
			}
			w, bw := s.Weights[r0+r], pb.Row(r)
			for k, v := range b.Row(i) {
				bw[k] = float64(w * v)
			}
		}
		addAtB(c, pa, pb, k)
	}
	sp.End()
	return c
}

// addAtB adds AᵀB to c, continuing every entry's sum over a's rows in order.
func addAtB(c, a, b *Dense, kern kernel) {
	n, q, p := a.Rows, a.Cols, b.Cols
	qt, pt := q&^3, p&^7
	j := 0
	for ; j+8 <= qt && n > 0; j += 8 {
		for k := 0; k < pt; k += 8 {
			tile8(c.Data[j*p+k:], p, a.Data[j:], q, b.Data[k:], p, n, kern)
		}
	}
	for ; j < qt && n > 0; j += 4 {
		for k := 0; k < pt; k += 8 {
			tile(c.Data[j*p+k:], p, a.Data[j:], q, b.Data[k:], p, n, kern)
		}
	}
	j0 := 0 // rows before j0 have no edge columns
	if pt == p {
		j0 = qt
	}
	for r := 0; r < n && j0 < q; r++ {
		ar, br := a.Row(r), b.Row(r)
		for j := j0; j < q; j++ {
			k0 := pt // a tiled row takes only the edge columns
			if j >= qt {
				k0 = 0
			}
			v, crow := ar[j], c.Data[j*p+k0:(j+1)*p]
			for kk, bv := range br[k0:] {
				crow[kk] += float64(v * bv)
			}
		}
	}
}

// AtVecWorkers computes Aᵀy under the signature of the budgeted kernels: the
// all-rows case of GramVec, which explains why the budget is not used.
func AtVecWorkers(a *Dense, y []float64, _ int) []float64 { return GramVec(a, y, Sample{}) }

// GramVec computes Σᵢ wᵢ·yᵢ·xᵢ over the rows, weights and columns s names —
// the Xᵀy that goes with GramWorkers' XᵀX. y is indexed like the rows of a
// (y[Rows[i]] pairs with row Rows[i]).
//
// It takes no worker budget: it is one pass that accumulates every output in
// s.Rows order, n·p multiply-adds which every caller computes once beside an
// n·p² Gram. Splitting the rows would make the sum's bits depend on the
// budget, and splitting the columns loses to the goroutine hand-off at the
// shapes the fits run (767×41 at 2 workers: 90 µs against 40 µs for this
// loop; 8192×256: 2.5 ms against 2.9 ms).
func GramVec(a *Dense, y []float64, s Sample) []float64 {
	if a.Rows != len(y) {
		panic(ErrShape)
	}
	n, p := s.shape(a)
	sp := tracer().Start("mat/gemv_t")
	out := make([]float64, p)
	for r := 0; r < n; r++ {
		i := r
		if s.Rows != nil {
			i = s.Rows[r]
		}
		v := y[i]
		if s.Weights != nil {
			v *= s.Weights[r]
		}
		row := a.Row(i)
		if s.Cols == nil {
			axpy(out, v, row)
			continue
		}
		for j, cj := range s.Cols {
			out[j] += float64(v * row[cj])
		}
	}
	sp.End()
	return out
}
