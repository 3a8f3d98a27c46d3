//go:build !amd64 || purego

package mat

// hasAVX2 is false in builds without the AVX2 tiles (other GOARCHes, or
// -tags purego): the portable kernels are the only ones.
const hasAVX2 = false

// noAVX2 is the panic of the stubs below, which complete the kernel switches
// of gram, tile and Inverse.mulVec; nothing selects them here.
const noAVX2 = "mat: the AVX2 kernels are not built for this target"

func gramWorkerAVX2(c, a *Dense, s *Sample, t, nWorkers int)                       { panic(noAVX2) }
func gramTile4x8(c *float64, ldc int, w *float64, ldw int, x *float64, ldx, m int) { panic(noAVX2) }
func gemvTile1x32(y, a *float64, lda int, v *float64, m int)                       { panic(noAVX2) }
