//go:build !amd64 || purego

package admm

// hasAVX2 is false in builds without the AVX2 z/u kernel (other GOARCHes,
// or -tags purego): the portable pass is the only one.
const hasAVX2 = false

// zuStrips completes zuPass's kernel switch; nothing selects it here.
func zuStrips(z, u, r, x, a, acc *float64, stride, rows, cols int, kappa, rho float64, shrink bool) {
	panic("admm: the AVX2 z/u kernel is not built for this target")
}
