//go:build !amd64 || purego

package admm

// noSIMD is the panic of the stubs below, which complete zuPass's kernel
// switch; mat.Kernel is "portable" in these builds, so nothing selects them.
const noSIMD = "admm: the vector z/u kernels are not built for this target"

func zuStrips(z, u, r, x, a, acc *float64, stride, rows, cols int, kappa, rho float64, shrink bool) {
	panic(noSIMD)
}

func zuStrips8(z, u, r, x, a, acc *float64, stride, rows, cols int, kappa, rho float64, shrink bool) {
	panic(noSIMD)
}
