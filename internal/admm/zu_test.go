package admm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"uoivar/internal/mat"
)

// TestKernelMatchesMat: the z/u pass runs the family mat's CPU check chose,
// so a renamed family cannot quietly drop the loop to the portable pass.
func TestKernelMatchesMat(t *testing.T) {
	if got, want := best.String(), mat.Kernel(); got != want {
		t.Fatalf("z/u kernel %q, mat.Kernel() %q", got, want)
	}
}

// TestZUStripMatchesLoop is the differential test of the vector z/u strip
// kernels (AVX2's 4-column and AVX-512's 8-column strips) against the
// portable pass, all in this binary: over a 24-wide panel with 1, 3, 5, 8,
// 9, 16 and 24 active slots (so strips hold stale lanes), with and without
// the threshold (λ = 0 keeps −0) at κ = 0.75 and κ = 0, on entries that
// include NaN, ±Inf, ±0, subnormals and x + u exactly ±κ, the active
// columns of z, u and r and their five sums must agree in Float64bits — NaN
// matching NaN, since which operand's payload a NaN sum carries is not part
// of the contract (Go may commute an addition, and the race build does) —
// and a vector pass may write no slot past its last strip.
func TestZUStripMatchesLoop(t *testing.T) {
	var kernels []kernel
	for k := avx2; k <= avx512; k++ {
		if k > best {
			t.Logf("no %s z/u kernel in this build or on this CPU: the %s leg is skipped", k, k)
			continue
		}
		kernels = append(kernels, k)
	}
	if len(kernels) == 0 {
		t.Skip("no vector z/u kernel in this build or on this CPU: only the portable pass runs")
	}
	const stride, rho = 24, 1.5
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		5e-324, -5e-324, 2.2250738585072e-310, -1.5e-320, 0x1p-1022}
	rng := rand.New(rand.NewSource(38))
	for _, p := range []int{1, 2, 13, 61} {
		// x, u, z, r, a for every slot; acc for the sums. x has p rounded
		// up to 4 rows like the loop's product panel.
		x := make([]float64, ((p+3)&^3)*stride)
		var z, u, a []float64
		for _, v := range []*[]float64{&z, &u, &a} {
			*v = make([]float64, p*stride)
		}
		for k := range z {
			x[k], u[k], z[k], a[k] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
			switch rng.Intn(6) {
			case 0: // a special value in one operand
				*[]*float64{&x[k], &u[k], &z[k], &a[k]}[rng.Intn(4)] = special[rng.Intn(len(special))]
			case 1: // x + u = ±0.75 exactly
				x[k], u[k] = 0.5, 0.25
				if rng.Intn(2) == 0 {
					x[k], u[k] = -0.5, -0.25
				}
			case 2: // −0 + −0 stays −0 without a threshold
				x[k], u[k] = math.Copysign(0, -1), math.Copysign(0, -1)
			}
		}
		for _, active := range []int{1, 3, 5, 8, 9, 16, 24} {
			for _, c := range []struct {
				kappa  float64
				shrink bool
			}{{0.75, true}, {0, true}, {0.75, false}} {
				name := fmt.Sprintf("p=%d active=%d κ=%v shrink=%v", p, active, c.kappa, c.shrink)
				run := func(k kernel) (z2, u2, r2, acc []float64) {
					z2, u2 = append([]float64(nil), z...), append([]float64(nil), u...)
					r2, acc = make([]float64, len(z)), make([]float64, 5*stride)
					for k := range r2 {
						r2[k] = 7
					}
					for k := range acc {
						acc[k] = 7
					}
					zuPass(z2, u2, r2, x, a, acc, stride, p, active, c.kappa, rho, c.shrink, k)
					return z2, u2, r2, acc
				}
				zw, uw, rw, accw := run(portable)
				for _, k := range kernels {
					zg, ug, rg, accg := run(k)
					lanes := 4
					if k == avx512 {
						lanes = 8
					}
					last := (active + lanes - 1) &^ (lanes - 1) // the vector pass covers [0, last)
					for _, panel := range []struct {
						name      string
						got, want []float64
						rows      int
					}{{"z", zg, zw, p}, {"u", ug, uw, p}, {"r", rg, rw, p}, {"sums", accg, accw, 5}} {
						for i := 0; i < panel.rows; i++ {
							for col := 0; col < stride; col++ {
								g, w := panel.got[i*stride+col], panel.want[i*stride+col]
								same := math.Float64bits(g) == math.Float64bits(w) || math.IsNaN(g) && math.IsNaN(w)
								switch {
								case col < active && !same:
									t.Fatalf("%s %s: %s[%d][%d] = %v (%#x), portable %v (%#x)", name, k, panel.name, i, col, g, math.Float64bits(g), w, math.Float64bits(w))
								case col >= last && math.Float64bits(g) != math.Float64bits(w):
									t.Fatalf("%s %s: %s[%d][%d] past the last strip was written", name, k, panel.name, i, col)
								}
							}
						}
					}
				}
			}
		}
	}
}
