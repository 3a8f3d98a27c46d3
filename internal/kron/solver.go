package kron

import (
	"uoivar/internal/admm"
	"uoivar/internal/mat"
	"uoivar/internal/mpi"
)

// GlobalRho computes the auto-scaled ADMM penalty for a distributed
// vectorized problem: the mean Gram diagonal of the global block-diagonal
// design, agreed across ranks with one Allreduce. All ranks must call
// collectively and use the returned value so the shared z-update is a valid
// prox step.
func GlobalRho(comm *mpi.Comm, b *VecBlock) float64 {
	sq := 0.0
	for r := 0; r < b.X.Rows; r++ {
		row := b.X.Row(r)
		sq += mat.Dot(row, row)
	}
	total := comm.AllreduceScalar(mpi.OpSum, sq)
	rho := total / float64(b.P*b.Q)
	if rho <= 0 {
		return 1
	}
	return rho
}

// NewVecFactorizationWorkers builds this rank's consensus LASSO-ADMM
// solver over comm for its VecBlock, with penalty rho (rho ≤ 0 falls back
// to 1; distributed callers should pass GlobalRho) and a kernel worker
// budget for the Gram products and factorizations (≤0 selects
// mat.DefaultWorkers); ranks sharing a machine pass their share so they do
// not oversubscribe the cores. All ranks of comm call the solver's Solve
// and SolveProjected collectively and get the identical consensus vec(B)
// estimate, whose Allreduce carries the full Q·P-length estimate each
// iteration — the communication the paper measures growing with the
// problem-size explosion (§IV-B). SolveProjected's support mask has length
// Q·P: it is the UoI_VAR estimation step (Algorithm 2 line 24) without
// re-assembling a column-restricted problem.
//
// Because (I ⊗ X) is block diagonal, a rank's local Gram matrix is block
// diagonal too, with one q×q block per equation that has local rows — so
// the factorization cost is q³ per block, never (Q·P)³. By the VecBlock row
// contract equation j's block is the Gram of the sample rows [s0, s1) the
// rank holds for it, so equations over the same sample range have the same
// block bit for bit: the rank factors it once per distinct range (one group
// for its whole equations, plus at most a partial first and a partial last
// equation), and the solver runs each group's x-updates as one panel
// product per iteration.
func NewVecFactorizationWorkers(comm *mpi.Comm, b *VecBlock, rho float64, workers int) (*admm.ConsensusSolver, error) {
	if rho <= 0 {
		rho = 1
	}
	lo, facs, aty, err := vecGroups(b, rho, workers)
	if err != nil {
		return nil, err
	}
	return admm.NewConsensusSolverGroups(comm, b.Q, b.P, lo, facs, aty, rho), nil
}

// vecGroups returns the first equation with local rows and, for it and each
// following one that has some, its factorization — one per distinct sample
// range, shared — and its right-hand side base (local rows of X)ᵀ·(their
// responses).
func vecGroups(b *VecBlock, rho float64, workers int) (lo int, facs []*admm.Factorization, aty [][]float64, err error) {
	if b.X.Rows == 0 {
		return 0, nil, nil, nil
	}
	lo, hi := b.Equation(0), b.Equation(b.X.Rows-1)+1
	byRange := map[[2]int]*admm.Factorization{} // keyed by sample range [s0, s1)
	for j := lo; j < hi; j++ {
		// Equation j's local rows are the contiguous [r0, r1), views of
		// the design rows of samples [r0, r1) + GLo − j·M.
		r0 := max(b.GLo, j*b.M) - b.GLo
		r1 := min(b.GHi, (j+1)*b.M) - b.GLo
		rows := mat.NewDenseData(r1-r0, b.Q, b.X.Data[r0*b.Q:r1*b.Q])
		aty = append(aty, mat.AtVecWorkers(rows, b.Y[r0:r1], workers))
		key := [2]int{b.GLo + r0 - j*b.M, b.GLo + r1 - j*b.M}
		fac := byRange[key]
		if fac == nil {
			if fac, err = admm.NewFactorizationGramWorkers(mat.AtAWorkers(rows, workers), rho, workers); err != nil {
				return 0, nil, nil, err
			}
			byRange[key] = fac
		}
		facs = append(facs, fac)
	}
	return lo, facs, aty, nil
}

// LocalSquaredError returns ½ Σ_local (y_g − a_g·β)² for the block's rows at
// the given full-length beta; Allreduce-sum across ranks plus λ‖β‖₁ gives
// the global objective.
func (b *VecBlock) LocalSquaredError(beta []float64) float64 {
	q := b.Q
	s := 0.0
	for r := 0; r < b.X.Rows; r++ {
		j := b.Equation(r)
		pred := mat.Dot(b.X.Row(r), beta[j*q:(j+1)*q])
		d := b.Y[r] - pred
		s += float64(d * d)
	}
	return 0.5 * s
}
