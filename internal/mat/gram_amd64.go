//go:build amd64 && !purego

package mat

// best is the widest kernel family the CPU and the OS support, read once at
// start-up: avx512 when cpuHasAVX512, else avx2 when cpuHasAVX2, else
// portable. A test that needs another family passes it to gram, tile and the
// Inverse's products instead of switching this.
var best = cpuKernel()

func cpuKernel() kernel {
	switch {
	case cpuHasAVX512():
		return avx512
	case cpuHasAVX2():
		return avx2
	}
	return portable
}

// cpuid executes CPUID with EAX = leaf and ECX = sub (gram_amd64.s).
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of XCR0, the state components the OS saves
// (gram_amd64.s).
func xgetbv() (eax uint32)

// cpuHasAVX2 reports CPUID's AVX2 flag, provided the OS has enabled what AVX
// needs: OSXSAVE (so XGETBV exists) and the XMM and YMM state bits of XCR0.
func cpuHasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYmm = 1<<1 | 1<<2
	if xgetbv()&xmmYmm != xmmYmm {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// cpuHasAVX512 reports CPUID's AVX512F flag, provided cpuHasAVX2 holds (an
// AVX-512 path still runs the AVX2 tile on a 4-row block) and the OS saves
// the AVX-512 state: XCR0's opmask, ZMM_Hi256 and Hi16_ZMM bits.
func cpuHasAVX512() bool {
	if !cpuHasAVX2() {
		return false
	}
	const zmm = 1<<5 | 1<<6 | 1<<7
	if xgetbv()&zmm != zmm {
		return false
	}
	const avx512f = 1 << 16
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx512f != 0
}

// avxTileJ × avxTileK is the AVX2 register tile: 4 rows of 8 outputs, two
// YMM accumulators per row.
const avxTileJ, avxTileK = 4, 8

// gramTile4x8 adds Σᵣ w[r·ldw+jj]·x[r·ldx+kk] over r < m, in that order, to
// c[jj·ldc+kk] for jj < 4 and kk < 8 (gram_amd64.s). Each output is one
// vector lane that takes a rounded product (VMULPD) and then a rounded sum
// (VADDPD) per row, never a fused multiply-add: the portable kernels'
// acc += float64(w·x), bit for bit. Callers go through tile, which checks
// the bounds.
//
//go:noescape
func gramTile4x8(c *float64, ldc int, w *float64, ldw int, x *float64, ldx, m int)

// gramTile8x8 is gramTile4x8 over 8 rows, jj < 8 (gram_amd64.s): one ZMM
// accumulator per row, each lane one output with the same rounding.
//
//go:noescape
func gramTile8x8(c *float64, ldc int, w *float64, ldw int, x *float64, ldx, m int)

// gemvTile1x32 adds Σᵣ v[r]·a[r·lda+kk] over r < m, in that order, to y[kk]
// for kk < 32 (gram_amd64.s), with gramTile4x8's rounding.
//
//go:noescape
func gemvTile1x32(y, a *float64, lda int, v *float64, m int)

// gemvTile1x64 is gemvTile1x32 over 64 outputs, kk < 64 (gram_amd64.s).
//
//go:noescape
func gemvTile1x64(y, a *float64, lda int, v *float64, m int)

// workerSIMD is worker over a row-major panel for the job's vector kernel
// family: packed row r holds augmented columns first, …, tp+q−1 of input
// row r0+r, so a tile's 8 columns are one contiguous run, and the weighted
// panel holds w·x and w·y in the same layout (the worker's own band columns
// only). Bands, chunks and the order of every entry's sum are worker's.
func (j *statsJob) workerSIMD(w int) {
	g := &j.g
	if w >= g.bands || j.n == 0 {
		return
	}
	first, width := j.first(w)
	weighted := j.s.Weights != nil
	buf, xs, ws := gramPanelPair(width, g.tp+g.q, weighted)
	for r0 := 0; r0 < j.n; r0 += gramChunk {
		m := min(j.n-r0, gramChunk)
		for r := 0; r < m; r++ {
			j.pack(xs[r*width:(r+1)*width], 1, j.rowIndex(r0+r), first)
		}
		if weighted {
			// Only the worker's own bands are read from the weighted panel.
			for b := w; b < g.bands; b += j.nWorkers {
				lo, hi := g.band(b)
				for r, wt := range j.s.Weights[r0 : r0+m] {
					src, dst := xs[r*width+lo-first:r*width+hi-first], ws[r*width+lo-first:r*width+hi-first]
					for c, v := range src {
						dst[c] = wt * v
					}
				}
			}
		}
		for b := w; b < g.bands; b += j.nWorkers {
			lo, hi := g.band(b)
			if lo >= g.tp {
				gramBandChunkSIMD(j.c, g.q, ws, xs, width, first-g.tp, m, lo-g.tp, hi-g.tp, j.k)
				continue
			}
			// A response band runs whole tiles or rows against every column
			// of X: the panel's slack covers the last one's reads past X's
			// last column, whose lanes land in yx's scratch columns.
			xoff := g.tp - first
			if hi-lo < gramBand {
				j.responseRows(ws, xs[xoff:], width, first, m)
				continue
			}
			for k := 0; k < g.q; k += avxTileK {
				tile8(j.yx[lo*j.ldy+k:], j.ldy, ws[lo-first:], width, xs[xoff+k:], width, m, j.k)
			}
		}
	}
	gramPanels.Put(buf)
}

// responseRows adds one row-major chunk to the rows of a short response (t
// ≤ 4, one 4-row band) as GEMV rows: response e's w·y is gathered into one
// contiguous run, the rows' multipliers, and every 64 columns of X (32 on
// avx2) are the lanes of one accumulator row, each summed in row order. x
// is the panel from X's first column.
func (j *statsJob) responseRows(ws, x []float64, width, first, m int) {
	lanes := 32
	if j.k == avx512 {
		lanes = 64
	}
	var v [gramChunk]float64
	for e := 0; e < j.g.t; e++ {
		for r := range v[:m] {
			v[r] = ws[r*width+e-first]
		}
		out := j.yx[e*j.ldy : (e+1)*j.ldy]
		for k := 0; k < j.g.q; k += lanes {
			_, _ = out[k+lanes-1], x[(m-1)*width+k+lanes-1] // keep the assembly in bounds
			if lanes == 64 {
				gemvTile1x64(&out[k], &x[k], width, &v[0], m)
			} else {
				gemvTile1x32(&out[k], &x[k], width, &v[0], m)
			}
		}
	}
}

// gramBandChunkSIMD adds one row-major chunk of m rows (row stride width) to
// rows [lo, hi) of the upper triangle of c (stride p), column j at panel
// column j−first, tiles k-outer like
// gramBandChunk. On avx512 a whole band (8 rows) takes one 8×8 tile per 8
// columns, elsewhere two 4×8 tiles: an entry's sum does not depend on which
// tile holds it. A partial tile — the last p mod 8 columns, or a band shorter
// than 8 rows — adds the chunk one row at a time, each entry's terms still in
// row order.
func gramBandChunkSIMD(c []float64, p int, ws, xs []float64, width, first, m, lo, hi int, kern kernel) {
	for k := lo; k < p; k += avxTileK {
		kn := min(p-k, avxTileK)
		if kern == avx512 && hi-lo == gramBand && kn == avxTileK {
			gramTile8x8(&c[lo*p+k], p, &ws[lo-first], width, &xs[k-first], width, m)
			continue
		}
		for j := lo; j < hi && j < k+kn; j += avxTileJ {
			jn := min(hi-j, avxTileJ)
			if jn == avxTileJ && kn == avxTileK {
				gramTile4x8(&c[j*p+k], p, &ws[j-first], width, &xs[k-first], width, m)
				continue
			}
			for r := 0; r < m; r++ {
				wr := ws[r*width+j-first : r*width+j-first+jn]
				xr := xs[r*width+k-first : r*width+k-first+kn]
				for jj, v := range wr {
					crow := c[(j+jj)*p+k : (j+jj)*p+k+kn]
					for kk, b := range xr {
						crow[kk] += float64(v * b)
					}
				}
			}
		}
	}
}
