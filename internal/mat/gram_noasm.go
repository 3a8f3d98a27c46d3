//go:build !amd64 || purego

package mat

// hasAVX2 is false in builds without the AVX2 Gram tile (other GOARCHes, or
// -tags purego): the portable kernel is the only one.
const hasAVX2 = false

// gramWorkerAVX2 completes gram's kernel switch; nothing selects it here.
func gramWorkerAVX2(c, a *Dense, s *Sample, t, nWorkers int) {
	panic("mat: the AVX2 Gram kernel is not built for this target")
}
