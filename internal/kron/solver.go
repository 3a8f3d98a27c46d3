package kron

import (
	"math"

	"uoivar/internal/admm"
	"uoivar/internal/mat"
	"uoivar/internal/mpi"
)

// VecFactorization caches the per-equation factorizations a rank needs to
// run consensus LASSO-ADMM on its VecBlock. Because (I ⊗ X) is block
// diagonal, a rank's local Gram matrix is block diagonal too, with one q×q
// block per equation that has local rows — so the factorization cost is
// q³ per equation, never (Q·P)³. The factorizations are reused across the
// whole λ path of a bootstrap, as in the serial solver.
type VecFactorization struct {
	block *VecBlock
	rho   float64
	// eqLo/eqHi bound the equations with local rows; per-equation data is
	// indexed by eq − eqLo.
	eqLo, eqHi int
	fac        []*admm.Factorization
	aty        [][]float64
	rowsOfEq   [][2]int // local row range [lo,hi) per equation
}

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

// NewVecFactorizationWorkers precomputes factors for the block with penalty
// rho (rho ≤ 0 falls back to 1; distributed callers should pass GlobalRho)
// and a kernel worker budget for the per-equation Gram products (≤0 selects
// mat.DefaultWorkers). Ranks sharing a machine pass their share so the
// collective construction does not oversubscribe the cores.
func NewVecFactorizationWorkers(b *VecBlock, rho float64, workers int) (*VecFactorization, error) {
	if rho <= 0 {
		rho = 1
	}
	f := &VecFactorization{block: b, rho: rho}
	if b.X.Rows == 0 {
		return f, nil
	}
	f.eqLo = b.Equation(0)
	f.eqHi = b.Equation(b.X.Rows-1) + 1
	nEq := f.eqHi - f.eqLo
	f.fac = make([]*admm.Factorization, nEq)
	f.aty = make([][]float64, nEq)
	f.rowsOfEq = make([][2]int, nEq)
	// Local rows are ordered by global index, so rows of one equation are
	// contiguous.
	r := 0
	for e := 0; e < nEq; e++ {
		lo := r
		for r < b.X.Rows && b.Equation(r) == f.eqLo+e {
			r++
		}
		f.rowsOfEq[e] = [2]int{lo, r}
		sub := b.X.SubRows(lo, r)
		ySub := b.Y[lo:r]
		fac, err := admm.NewFactorizationGramWorkers(mat.AtAWorkers(sub, workers), rho, workers)
		if err != nil {
			return nil, err
		}
		f.fac[e] = fac
		f.aty[e] = mat.AtVecWorkers(sub, ySub, workers)
	}
	return f, nil
}

// Solve runs distributed consensus LASSO-ADMM on the vectorized problem.
// All ranks of comm must call collectively with their own factorizations;
// every rank returns the identical consensus vec(B) estimate.
//
// The z-update Allreduce carries the full Q·P-length estimate each
// iteration — the communication the paper measures growing with the
// problem-size explosion (§IV-B).
func (f *VecFactorization) Solve(comm *mpi.Comm, lambda float64, opts *admm.Options) *admm.Result {
	nRanks := float64(comm.Size())
	return f.run(comm, opts, func(z, sum []float64) {
		if lambda > 0 {
			k := lambda / (f.rho * nRanks)
			for i := range z {
				z[i] = admm.SoftThreshold(sum[i]/nRanks, k)
			}
			return
		}
		for i := range z {
			z[i] = sum[i] / nRanks
		}
	})
}

// SolveProjected runs distributed consensus OLS on the vectorized problem
// restricted to the given support mask (length Q·P): the z-update projects
// onto the support instead of soft-thresholding. This implements the
// UoI_VAR estimation step (Algorithm 2 line 24) without re-assembling a
// column-restricted problem.
func (f *VecFactorization) SolveProjected(comm *mpi.Comm, support []bool, opts *admm.Options) *admm.Result {
	if len(support) != f.block.GlobalCols() {
		panic("kron: support length mismatch")
	}
	nRanks := float64(comm.Size())
	return f.run(comm, opts, func(z, sum []float64) {
		for i := range z {
			if support[i] {
				z[i] = sum[i] / nRanks
			} else {
				z[i] = 0
			}
		}
	})
}

// run is the consensus ADMM loop Solve and SolveProjected share; zUpdate
// consumes the Allreduced Σ(x+u).
func (f *VecFactorization) run(comm *mpi.Comm, opts *admm.Options, zUpdate func(z, sum []float64)) *admm.Result {
	o := optsWithDefaults(opts)
	b := f.block
	qTot := b.GlobalCols()
	nRanks := float64(comm.Size())
	q := b.Q

	z := make([]float64, qTot)
	u := make([]float64, qTot)
	if o.WarmZ != nil {
		copy(z, o.WarmZ)
	}
	if o.WarmU != nil {
		copy(u, o.WarmU)
	}
	x := make([]float64, qTot)
	rhs := make([]float64, q)
	zOld := make([]float64, qTot)
	buf := make([]float64, qTot+3)
	sqrtN := math.Sqrt(float64(qTot) * nRanks)

	var primal, dual float64
	iters := 0
	converged := false
	for iter := 1; iter <= o.MaxIter; iter++ {
		iters = iter
		// x-update: per-equation solves where this rank has rows, passthrough
		// elsewhere.
		for j := 0; j < b.P; j++ {
			zj := z[j*q : (j+1)*q]
			uj := u[j*q : (j+1)*q]
			xj := x[j*q : (j+1)*q]
			if j >= f.eqLo && j < f.eqHi {
				e := j - f.eqLo
				for i := 0; i < q; i++ {
					rhs[i] = f.aty[e][i] + float64(f.rho*(zj[i]-uj[i]))
				}
				f.fac[e].XUpdate(xj, rhs)
			} else {
				for i := 0; i < q; i++ {
					xj[i] = zj[i] - uj[i]
				}
			}
		}

		// Global z-update.
		var localPrimal, localXSq, localUSq float64
		for i := 0; i < qTot; i++ {
			buf[i] = x[i] + u[i]
			d := x[i] - z[i]
			localPrimal += float64(d * d)
			localXSq += float64(x[i] * x[i])
			localUSq += float64(u[i] * u[i])
		}
		buf[qTot] = localPrimal
		buf[qTot+1] = localXSq
		buf[qTot+2] = localUSq
		comm.Allreduce(mpi.OpSum, buf)

		copy(zOld, z)
		zUpdate(z, buf[:qTot])
		for i := range u {
			u[i] += x[i] - z[i]
		}

		primal = math.Sqrt(buf[qTot])
		dual = 0
		for i := range z {
			d := z[i] - zOld[i]
			dual += float64(d * d)
		}
		dual = f.rho * math.Sqrt(nRanks) * math.Sqrt(dual)
		normX := math.Sqrt(buf[qTot+1])
		normZ := math.Sqrt(nRanks) * mat.Norm2(z)
		normU := math.Sqrt(buf[qTot+2])
		epsPrimal := float64(sqrtN*o.AbsTol) + float64(o.RelTol*math.Max(normX, normZ))
		epsDual := float64(sqrtN*o.AbsTol) + float64(o.RelTol*f.rho*normU)
		if primal <= epsPrimal && dual <= epsDual {
			converged = true
			break
		}
	}
	f.countSolve(&o, iters)
	return &admm.Result{
		Beta:       z,
		U:          u,
		Iters:      iters,
		Converged:  converged,
		PrimalRes:  primal,
		DualRes:    dual,
		AllreduceN: iters,
	}
}

// countSolve folds one vectorized solve's work into opts.Trace (nil-safe):
// the x-update runs one inverse product per locally-held equation per
// iteration.
func (f *VecFactorization) countSolve(o *admm.Options, iters int) {
	tr := o.Trace
	if tr == nil {
		return
	}
	tr.Add("admm/solves", 1)
	tr.Add("admm/iters", int64(iters))
	tr.Add("admm/chol_solves", int64(iters)*int64(len(f.fac)))
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

func optsWithDefaults(o *admm.Options) admm.Options {
	out := admm.Options{Rho: 1, MaxIter: 500, AbsTol: 1e-6, RelTol: 1e-4}
	if o == nil {
		return out
	}
	if o.Rho > 0 {
		out.Rho = o.Rho
	}
	if o.MaxIter > 0 {
		out.MaxIter = o.MaxIter
	}
	if o.AbsTol > 0 {
		out.AbsTol = o.AbsTol
	}
	if o.RelTol > 0 {
		out.RelTol = o.RelTol
	}
	out.WarmZ, out.WarmU = o.WarmZ, o.WarmU
	out.KernelWorkers = o.KernelWorkers
	out.Trace = o.Trace
	return out
}
