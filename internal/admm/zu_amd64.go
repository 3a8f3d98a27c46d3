//go:build amd64 && !purego

package admm

// zuStrips is the z/u pass of zuPass over panel columns [0, cols), cols a
// multiple of 4, rows rows of row stride stride (zu_amd64.s): each lane of a
// YMM register is one column, the rows run in order, and each of the five
// sums of a 4-column strip is one accumulator register, stored to
// acc[j·stride+c]. Every lane performs zuPass's scalar expressions on its
// column — VADDPD, VSUBPD and VMULPD, never a fused multiply-add — so it
// rounds the same. Callers go through zuPass, which checks the bounds.
//
//go:noescape
func zuStrips(z, u, r, x, a, acc *float64, stride, rows, cols int, kappa, rho float64, shrink bool)

// zuStrips8 is zuStrips over 8-column strips of ZMM lanes, cols a multiple
// of 8 (zu_amd64.s). Its soft threshold compares into opmasks and selects
// with zero-masked arithmetic, so a NaN still gives +0.
//
//go:noescape
func zuStrips8(z, u, r, x, a, acc *float64, stride, rows, cols int, kappa, rho float64, shrink bool)
