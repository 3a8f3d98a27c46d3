//go:build amd64 && !purego

package admm

import "uoivar/internal/mat"

// hasAVX2 selects the AVX2 z/u strip kernel for the serial loop. It is mat's
// CPU check, so one binary runs every AVX2 kernel or none; a test that needs
// the portable pass passes avx2=false to zuPass.
var hasAVX2 = mat.HasAVX2()

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
