package mat

// PanelTile is the number of right-hand sides one pass over a row of L
// carries in registers. A single substitution is one dependent
// multiply-subtract chain; PanelTile independent chains share each load of
// L and overlap their latencies. Columns past the last whole tile are solved
// one at a time, each at the cost of a full tile, so a caller that owns the
// panel layout pads cols up to a multiple of PanelTile with zero columns.
const PanelTile = 8

// SolvePanelInPlace solves A·X = B in place for the leading cols columns of
// a row-major panel b with Size() rows and the given row stride: column e of
// the panel is the vector b[e], b[stride+e], b[2·stride+e], …
//
// Every column goes through exactly the floating-point operation sequence
// SolveInPlace applies to a single vector — the tiling only interleaves
// independent columns, and a remainder column runs SolveInPlace's own
// substitution at the panel's stride — so column e of the result is
// bit-identical to SolveInPlace on that column alone, whatever cols, stride
// or the column's position in the panel.
func (c *Cholesky) SolvePanelInPlace(b []float64, stride, cols int) {
	if cols < 0 || cols > stride || (c.n > 0 && cols > 0 && len(b) < (c.n-1)*stride+cols) {
		panic(ErrShape)
	}
	e := 0
	for ; e+PanelTile <= cols; e += PanelTile {
		c.forwardTile(b, stride, e)
		c.backwardTile(b, stride, e)
	}
	for ; e < cols; e++ {
		c.forwardCol(b, stride, e)
		c.backwardCol(b, stride, e)
	}
}

// forwardTile solves L·Y = B in place for panel columns [e, e+PanelTile).
func (c *Cholesky) forwardTile(b []float64, stride, e int) {
	n := c.n
	for i := 0; i < n; i++ {
		bi := b[i*stride+e : i*stride+e+PanelTile : i*stride+e+PanelTile]
		s0, s1, s2, s3, s4, s5, s6, s7 := bi[0], bi[1], bi[2], bi[3], bi[4], bi[5], bi[6], bi[7]
		off := e
		for _, v := range c.l[i*n : i*n+i] {
			bk := b[off : off+PanelTile : off+PanelTile]
			s0 -= v * bk[0]
			s1 -= v * bk[1]
			s2 -= v * bk[2]
			s3 -= v * bk[3]
			s4 -= v * bk[4]
			s5 -= v * bk[5]
			s6 -= v * bk[6]
			s7 -= v * bk[7]
			off += stride
		}
		d := c.l[i*n+i]
		bi[0], bi[1], bi[2], bi[3], bi[4], bi[5], bi[6], bi[7] = s0/d, s1/d, s2/d, s3/d, s4/d, s5/d, s6/d, s7/d
	}
}

// backwardTile solves Lᵀ·X = Y in place for panel columns [e, e+PanelTile).
func (c *Cholesky) backwardTile(b []float64, stride, e int) {
	n := c.n
	for i := n - 1; i >= 0; i-- {
		bi := b[i*stride+e : i*stride+e+PanelTile : i*stride+e+PanelTile]
		s0, s1, s2, s3, s4, s5, s6, s7 := bi[0], bi[1], bi[2], bi[3], bi[4], bi[5], bi[6], bi[7]
		off := (i+1)*stride + e
		for _, v := range c.lt[i*n+i+1 : (i+1)*n] {
			bk := b[off : off+PanelTile : off+PanelTile]
			s0 -= v * bk[0]
			s1 -= v * bk[1]
			s2 -= v * bk[2]
			s3 -= v * bk[3]
			s4 -= v * bk[4]
			s5 -= v * bk[5]
			s6 -= v * bk[6]
			s7 -= v * bk[7]
			off += stride
		}
		d := c.l[i*n+i]
		bi[0], bi[1], bi[2], bi[3], bi[4], bi[5], bi[6], bi[7] = s0/d, s1/d, s2/d, s3/d, s4/d, s5/d, s6/d, s7/d
	}
}
