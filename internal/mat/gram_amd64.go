//go:build amd64 && !purego

package mat

// hasAVX2 selects the AVX2 Gram tile for GramWorkers: the CPU has AVX2 and
// the OS saves the YMM registers across context switches. It is read once at
// start-up; a test that needs the portable kernel passes avx2=false to gram.
var hasAVX2 = cpuHasAVX2()

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

// avxTileJ × avxTileK is the AVX2 register tile: 4 rows of 8 outputs, two
// YMM accumulators per row.
const avxTileJ, avxTileK = 4, 8

// gramTile4x8 adds Σᵣ w[r·ld+jj]·x[r·ld+kk] over r < m, in that order, to
// c[jj·ldc+kk] for jj < 4 and kk < 8 (gram_amd64.s). Each output is one
// vector lane that takes a rounded product (VMULPD) and then a rounded sum
// (VADDPD) per row, never a fused multiply-add: the portable kernel's
// acc += float64(w·x), bit for bit.
//
//go:noescape
func gramTile4x8(c *float64, ldc int, w, x *float64, ld, m int)

// gramWorkerAVX2 is gramWorker over a row-major panel: packed row r holds
// columns first, …, p−1 of input row r0+r, so a tile's 8 columns are one
// contiguous run, and the weighted panel holds w·x in the same layout (the
// worker's own band columns only). Bands, chunks and the order of every
// entry's sum are gramWorker's.
func gramWorkerAVX2(c, a *Dense, s *Sample, t, nWorkers int) {
	n, p := s.shape(a)
	first := t * gramBand
	if first >= p || n == 0 {
		return
	}
	width, step := p-first, nWorkers*gramBand
	buf, xs, ws := gramPanelPair(width, s.Weights != nil)
	for r0 := 0; r0 < n; r0 += gramChunk {
		m := min(n-r0, gramChunk)
		for r := 0; r < m; r++ {
			i := r0 + r
			if s.Rows != nil {
				i = s.Rows[i]
			}
			row, dst := a.Row(i), xs[r*width:(r+1)*width]
			if s.Cols == nil {
				copy(dst, row[first:])
			} else {
				for j, cj := range s.Cols[first:] {
					dst[j] = row[cj]
				}
			}
			if s.Weights != nil {
				w, wdst := s.Weights[r0+r], ws[r*width:(r+1)*width]
				for lo := 0; lo < width; lo += step {
					for j := lo; j < min(lo+gramBand, width); j++ {
						wdst[j] = w * dst[j]
					}
				}
			}
		}
		for lo := first; lo < p; lo += step {
			gramBandChunkAVX2(c.Data, p, ws, xs, width, first, m, lo, min(lo+gramBand, p))
		}
	}
	gramPanels.Put(buf)
}

// gramBandChunkAVX2 adds one row-major chunk of m rows (row stride width) to
// rows [lo, hi) of the upper triangle of c (stride p), tiles k-outer like
// gramBandChunk. A partial tile — the last p mod 8 columns, or a band shorter
// than 8 rows — adds the chunk one row at a time, each entry's terms still in
// row order.
func gramBandChunkAVX2(c []float64, p int, ws, xs []float64, width, first, m, lo, hi int) {
	for k := lo; k < p; k += avxTileK {
		kn := min(p-k, avxTileK)
		for j := lo; j < hi && j < k+kn; j += avxTileJ {
			jn := min(hi-j, avxTileJ)
			if jn == avxTileJ && kn == avxTileK {
				gramTile4x8(&c[j*p+k], p, &ws[j-first], &xs[k-first], width, m)
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
