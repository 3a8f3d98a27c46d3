//go:build !amd64 || purego

package mat

// best is portable in builds without the vector kernels (other GOARCHes, or
// -tags purego): it is the only family.
const best = portable

// noSIMD is the panic of the stubs below, which complete the kernel switches
// of stats, tile, tile8 and Inverse.mulVec and let the tile tests and
// benchmarks build; nothing selects them here.
const noSIMD = "mat: the vector kernels are not built for this target"

func (j *statsJob) workerSIMD(w int)                                                { panic(noSIMD) }
func gramTile4x8(c *float64, ldc int, w *float64, ldw int, x *float64, ldx, m int)  { panic(noSIMD) }
func gramTile8x8(c *float64, ldc int, w *float64, ldw int, x *float64, ldx, m int)  { panic(noSIMD) }
func gramTile8x16(c *float64, ldc int, w *float64, ldw int, x *float64, ldx, m int) { panic(noSIMD) }
func gemvTile1x32(y, a *float64, lda int, v *float64, m int)                        { panic(noSIMD) }
func gemvTile1x64(y, a *float64, lda int, v *float64, m int)                        { panic(noSIMD) }
