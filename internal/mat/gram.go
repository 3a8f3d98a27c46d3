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
// explicit kernel worker budget (≤0 selects DefaultWorkers): Stats without
// a response.
func GramWorkers(a *Dense, s Sample, workers int) *Dense {
	return gram(a, s, workers, best)
}

// gram is GramWorkers with the kernel family k (valid only up to best).
func gram(a *Dense, s Sample, workers int, k kernel) *Dense {
	g, _ := stats(a, nil, s, workers, k)
	return g
}

// Stats returns the sufficient statistics of a sample in one threaded
// sweep: the weighted Gram XᵀX of GramWorkers and the q×t panel XᵀY of the
// n×t responses y, whose rows go with x's (nil y: no panel). Entry (j, e)
// of XᵀY is Σᵣ (w_r·y_re)·x_rj summed from zero in s.Rows order, one
// rounded product (two with a weight) and one rounded sum per row — bit for
// bit MulAtB of the gathered rows with w·y folded in, and so GramVec of them
// column by column, at any budget and on any kernel family (a product does
// not depend on its operands' order).
//
// Workers own outputs, never a share of the reduction. The sweep runs over
// the augmented columns [Y | X]: the t response columns, padded to whole
// tile rows (4 when t ≤ 4, else a multiple of 8), ahead of X's. Their rows
// of the upper triangle are cut into bands of gramBand adjacent rows (one
// 4-row band for a short response) dealt to the workers cyclically — row j
// of the Gram is p−j long, so a contiguous split would leave one worker all
// the long rows — and every worker makes one pass over the input rows for
// its bands. A response band tiles against X's columns only (YᵀY is never
// formed), and each band tiles only its own upper triangle of XᵀX. Each
// c[j][k] (j ≤ k) is therefore the sum of (wᵢ·xᵢⱼ)·xᵢₖ accumulated one term
// at a time in s.Rows order at any budget and for any s.Cols, so the
// result's bits depend on neither: a column subset in ascending order is
// bitwise the sub-block of the full Gram, and unit weights over a row list
// are bitwise AtA of the gathered rows.
//
// The pass packs gramChunk rows at a time into a panel (a second panel holds
// w·x and w·y when there are weights) and accumulates register tiles from
// it. On amd64 CPUs with AVX2 the panel is row-major and a tile is 4×8
// vector lanes (8×8 with AVX-512), one output entry each (gram_amd64.go);
// elsewhere the panel is transposed (one contiguous run of the chunk per
// column) and a tile is tileJ×tileK scalars. Every kernel adds the same
// rounded products in the same order, so their bits agree (DESIGN.md §6).
func Stats(x, y *Dense, s Sample, workers int) (gram, xty *Dense) {
	return stats(x, y, s, workers, best)
}

// stats is Stats with the kernel family k, as gram.
func stats(x, y *Dense, s Sample, workers int, k kernel) (gram, xty *Dense) {
	n, q := s.shape(x)
	t := 0
	if y != nil {
		if y.Rows != x.Rows {
			panic(ErrShape)
		}
		t = y.Cols
	}
	tr := tracer()
	sp := tr.Start("mat/ata")
	job := statsJob{x: x, y: y, s: &s, n: n, g: newAugment(t, q), k: k}
	job.c = NewDense(q, q).Data
	job.ldy = (q + responseLanes - 1) &^ (responseLanes - 1)
	var yx *[]float64
	if t > 0 {
		yx = takePanel(&responsePanels, job.g.tp*job.ldy)
		job.yx = (*yx)[:job.g.tp*job.ldy]
		clear(job.yx)
	}
	nWorkers := min(clampWorkers(workers), job.g.bands)
	// n·(q + tp)·q bounds the madd count of the sweep.
	if n < 2 || n*(q+job.g.tp)*q < parallelThreshold || nWorkers < 1 {
		nWorkers = 1
	}
	job.nWorkers = nWorkers
	if nWorkers == 1 {
		job.pass(0)
	} else {
		tr.SetMax("mat/workers", int64(nWorkers))
		forEachWorker(nWorkers, job.pass)
	}
	// Mirror the upper triangle into the lower.
	c := job.c
	for i := 0; i < q; i++ {
		for j := i + 1; j < q; j++ {
			c[j*q+i] = c[i*q+j]
		}
	}
	gram = &Dense{Rows: q, Cols: q, Data: c}
	if y != nil {
		xty = NewDense(q, t)
		for e := 0; e < t; e++ {
			for j, v := range job.yx[e*job.ldy : e*job.ldy+q] {
				xty.Data[j*t+e] = v
			}
		}
	}
	if yx != nil {
		responsePanels.Put(yx)
	}
	sp.End()
	return gram, xty
}

// augment is the column layout of one Stats sweep: tp padded response
// columns ahead of X's q, cut into bands.
type augment struct {
	t, tp, q  int // response columns, their padded count, design columns
	rb, bands int // response bands, all bands
}

// newAugment lays t responses out ahead of q design columns: one 4-row band
// for a short response (t ≤ 4), t rounded up to whole 8-row bands above.
func newAugment(t, q int) augment {
	tp := 0
	if t > 4 {
		tp = (t + 7) &^ 7
	} else if t > 0 {
		tp = 4
	}
	rb := (tp + gramBand - 1) / gramBand
	return augment{t: t, tp: tp, q: q, rb: rb, bands: rb + (q+gramBand-1)/gramBand}
}

// band returns the augmented columns [lo, hi) of band b: the response bands
// first, then X's.
func (g *augment) band(b int) (lo, hi int) {
	if b < g.rb {
		lo = b * gramBand
		return lo, min(lo+gramBand, g.tp)
	}
	lo = g.tp + (b-g.rb)*gramBand
	return lo, min(lo+gramBand, g.tp+g.q)
}

// statsJob is one Stats sweep: its inputs, its layout and its outputs — the
// upper triangle of XᵀX in c (stride q) and YᵀX in yx (tp rows, stride ldy,
// q rounded up to responseLanes; the columns past q are scratch).
type statsJob struct {
	x, y     *Dense
	s        *Sample
	n        int
	g        augment
	c, yx    []float64
	ldy      int
	nWorkers int
	k        kernel
}

// pass accumulates worker w's bands with the job's kernel family.
func (j *statsJob) pass(w int) {
	if j.k == portable {
		j.worker(w)
		return
	}
	j.workerSIMD(w)
}

// gramPanels recycles the packed panels and responsePanels the YᵀX scratch:
// a fit calls the kernel once per cell, and a 256-column panel pair is 256
// KiB. Each pool holds one kind of buffer, so a buffer it returns is the
// right size.
var (
	gramPanels     = sync.Pool{New: func() any { return new([]float64) }}
	responsePanels = sync.Pool{New: func() any { return new([]float64) }}
)

// responseLanes is the widest block of X's columns a response tile or row
// covers (a 64-lane GEMV row), and panelSlack how far one may read past a
// panel's last packed row: the last block runs whole, and the lanes past
// X's last column are scratch outputs.
const responseLanes, panelSlack = 64, 64

// takePanel returns a buffer of at least size entries from pool; the
// caller puts it back.
func takePanel(pool *sync.Pool, size int) *[]float64 {
	buf := pool.Get().(*[]float64)
	if cap(*buf) < size {
		*buf = make([]float64, size)
	}
	return buf
}

// gramPanelPair takes a panel pair for width columns from gramPanels: xs for
// the augmented row and ws for its weighted copy, which is xs itself when
// there are no weights. Each is panelSlack entries longer than gramChunk
// rows. Every worker of a sweep asks for the pair of the widest panel, full,
// so that a buffer another worker put back fits. The caller puts buf back.
func gramPanelPair(width, full int, weighted bool) (buf *[]float64, xs, ws []float64) {
	rows := width * gramChunk
	size := full*gramChunk + panelSlack
	if weighted {
		size += full * gramChunk
	}
	buf = takePanel(&gramPanels, size)
	xs = (*buf)[:rows+panelSlack]
	ws = xs // unit weights: w·x is x
	if weighted {
		ws = (*buf)[rows : 2*rows+panelSlack]
	}
	return buf, xs, ws
}

// first returns worker w's first augmented column — columns before its
// first band are never read — and the panel width from there.
func (j *statsJob) first(w int) (first, width int) {
	first, _ = j.g.band(w)
	return first, j.g.tp + j.g.q - first
}

// rowIndex is the input row of summed row r.
func (j *statsJob) rowIndex(r int) int {
	if j.s.Rows != nil {
		return j.s.Rows[r]
	}
	return r
}

// pack writes augmented columns [first, tp+q) of input row i into dst[0],
// dst[step], dst[2·step], …: the response (zeros past t), then X's columns
// of the sample.
func (j *statsJob) pack(dst []float64, step, i, first int) {
	g := &j.g
	o := 0
	if first < g.tp {
		yr := j.y.Row(i)
		for e := first; e < g.tp; e++ {
			v := 0.0
			if e < g.t {
				v = yr[e]
			}
			dst[o] = v
			o += step
		}
	}
	x0 := max(first-g.tp, 0)
	row := j.x.Row(i)
	if j.s.Cols == nil {
		if step == 1 {
			copy(dst[o:], row[x0:])
			return
		}
		for _, v := range row[x0:] {
			dst[o] = v
			o += step
		}
		return
	}
	for _, cj := range j.s.Cols[x0:] {
		dst[o] = row[cj]
		o += step
	}
}

// worker accumulates worker w's share of the sweep — bands w, w+nWorkers,
// w+2·nWorkers, … in one pass over the rows — over a transposed panel: it
// is the portable kernel and the vector kernels' oracle.
func (j *statsJob) worker(w int) {
	g := &j.g
	if w >= g.bands || j.n == 0 {
		return
	}
	first, width := j.first(w)
	buf, xs, ws := gramPanelPair(width, g.tp+g.q, j.s.Weights != nil)
	for r0 := 0; r0 < j.n; r0 += gramChunk {
		m := min(j.n-r0, gramChunk)
		// Pack: xs[col·m + r] = augmented column first+col of row r0+r.
		for r := 0; r < m; r++ {
			j.pack(xs[r:], m, j.rowIndex(r0+r), first)
		}
		if j.s.Weights != nil {
			// Only the worker's own bands are read from the weighted panel.
			wt := j.s.Weights[r0 : r0+m]
			for b := w; b < g.bands; b += j.nWorkers {
				lo, hi := g.band(b)
				for col := lo - first; col < hi-first; col++ {
					src, dst := xs[col*m:(col+1)*m], ws[col*m:(col+1)*m]
					for r, v := range src {
						dst[r] = wt[r] * v
					}
				}
			}
		}
		for b := w; b < g.bands; b += j.nWorkers {
			lo, hi := g.band(b)
			if lo < g.tp {
				j.responseChunk(ws, xs, first, m, lo, hi)
				continue
			}
			gramBandChunk(j.c, g.q, ws, xs, first-g.tp, m, lo-g.tp, hi-g.tp)
		}
	}
	gramPanels.Put(buf)
}

// responseChunk adds one transposed chunk of m rows to rows [lo, hi) of YᵀX
// (augmented columns, the padding rows skipped), entry by entry in row
// order.
func (j *statsJob) responseChunk(ws, xs []float64, first, m, lo, hi int) {
	g := &j.g
	xoff := g.tp - first // the panel column of X's column 0
	for e := lo; e < min(hi, g.t); e++ {
		we := ws[(e-first)*m : (e-first+1)*m]
		out := j.yx[e*j.ldy : e*j.ldy+g.q]
		for k := range out {
			xk := xs[(xoff+k)*m : (xoff+k+1)*m]
			acc := out[k]
			for r, v := range we {
				acc += float64(v * xk[r])
			}
			out[k] = acc
		}
	}
}

// gramBandChunk adds one packed chunk of m rows to rows [lo, hi) of the upper
// triangle of c (stride p); column j is panel column j−first. Tiles run
// k-outer so the tileK panel rows are read once per band. A tile that
// straddles the diagonal also writes the few entries below it in the band's
// own rows; the caller's mirror pass overwrites them.
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

// MulAtB returns AᵀB (q×p) for an n×q A and an n×p B whose rows go with
// A's: entry (j, k) is Σᵣ b_rk·a_rj summed from zero over the rows in
// order, one rounded product and one rounded sum per row. Column k is
// therefore bit for bit GramVec of a with column k of b — the same products
// (a product does not depend on its operands' order) added in the same
// order — and a one-column B runs GramVec's loop. Whole 8×8 and 4×8 blocks
// run the tiles on the row-major inputs — eight or four columns of A as
// their w operand, eight of B as their x operand — and the last q mod 4
// rows and p mod 8 columns add one input row at a time. A sample's XᵀY is
// Stats', which sums it in the same order inside the Gram's sweep.
func MulAtB(a, b *Dense) *Dense { return mulAtB(a, b, best) }

// mulAtB is MulAtB with the kernel family k, as gram.
func mulAtB(a, b *Dense, k kernel) *Dense {
	if a.Rows != b.Rows {
		panic(ErrShape)
	}
	if b.Cols == 1 {
		return NewDenseData(a.Cols, 1, GramVec(a, b.Data))
	}
	sp := tracer().Start("mat/gemm_atb")
	c := NewDense(a.Cols, b.Cols)
	addAtB(c, a, b, k)
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

// AtVecWorkers computes Aᵀy under the signature of the budgeted kernels:
// GramVec, which explains why the budget is not used.
func AtVecWorkers(a *Dense, y []float64, _ int) []float64 { return GramVec(a, y) }

// GramVec computes Aᵀy = Σᵢ yᵢ·aᵢ over the rows of a in order, each output
// summed from zero with one rounded product and one rounded sum per row —
// the λ_max product and the standalone solvers' right-hand side. A sample's
// Xᵀy, and a cell's, is Stats', in the same order and bits.
//
// It takes no worker budget: it is one pass that accumulates every output in
// row order, n·p multiply-adds. Splitting the rows would make the sum's bits
// depend on the budget, and splitting the columns loses to the goroutine
// hand-off at the shapes its callers run.
func GramVec(a *Dense, y []float64) []float64 {
	if a.Rows != len(y) {
		panic(ErrShape)
	}
	sp := tracer().Start("mat/gemv_t")
	out := make([]float64, a.Cols)
	for i, v := range y {
		axpy(out, v, a.Row(i))
	}
	sp.End()
	return out
}
