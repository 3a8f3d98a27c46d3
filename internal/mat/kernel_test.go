package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

// hostKernels lists the kernel families this binary runs on this CPU,
// portable first, and logs each wider family whose leg is skipped here.
func hostKernels(t testing.TB) []kernel {
	var out []kernel
	for k := portable; k <= avx512; k++ {
		if k > best {
			t.Logf("no %s kernels in this build or on this CPU: the %s leg is skipped", k, k)
			continue
		}
		out = append(out, k)
	}
	return out
}

// BenchmarkTile times one 8×8 output block summed over 256 rows — the Gram
// band tile at lasso_tall's p and the x-update's panel tile — per kernel
// family of this host: 8 dot8 rows, two 4×8 AVX2 tiles, or one 8×8 AVX-512
// tile. GFLOP/s counts a multiply and an add per term.
func BenchmarkTile(b *testing.B) {
	const m, ld = 256, 64
	rng := rand.New(rand.NewSource(3))
	w, x, c := randomPanel(rng, m, ld), randomPanel(rng, m, ld), make([]float64, 8*ld)
	for _, k := range hostKernels(b) {
		b.Run(fmt.Sprint(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tile8(c, ld, w, ld, x, ld, m, k)
			}
			b.ReportMetric(2*8*8*m*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
