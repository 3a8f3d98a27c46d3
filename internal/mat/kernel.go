package mat

// kernel names one family of the dense kernels: the register tile of the
// Gram, MulAtB and the inverse's products, and the GEMV row of MulVec. Every
// family adds each output's rounded products in the same order, so a
// result's bits do not depend on the family (DESIGN.md §6). The families are
// ordered by width, and a CPU that runs one runs every narrower one.
type kernel uint8

const (
	// portable is Go: dot8 rows, and the Gram over a transposed panel.
	portable kernel = iota
	// avx2 is the 4×8 YMM tile and the 1×32 GEMV row (gram_amd64.s).
	avx2
	// avx512 is the 8×8 ZMM tile and the 1×64 GEMV row (gram_amd64.s); a
	// block of only 4 rows still takes the 4×8 YMM tile.
	avx512
)

func (k kernel) String() string { return [...]string{"portable", "avx2", "avx512"}[k] }

// Kernel names the dense-kernel family this binary runs: "avx512", "avx2"
// or "portable". It is chosen once at start-up from the CPU and the state
// the OS saves, never by a setting, and hand-written kernels elsewhere
// (internal/admm) key on it, so one CPU check decides every kernel.
func Kernel() string { return best.String() }
