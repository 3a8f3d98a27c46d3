package kron

import (
	"math"
	"slices"

	"uoivar/internal/admm"
	"uoivar/internal/mat"
	"uoivar/internal/mpi"
)

// VecFactorization holds what a rank needs to run consensus LASSO-ADMM on
// its VecBlock. Because (I ⊗ X) is block diagonal, a rank's local Gram
// matrix is block diagonal too, with one q×q block per equation that has
// local rows — so the factorization cost is q³ per block, never (Q·P)³.
// By the VecBlock row contract equation j's block is the Gram of the sample
// rows [s0, s1) the rank holds for it, so equations over the same sample
// range have the same block bit for bit: the rank factors it once per
// distinct range (one group for its whole equations, plus at most a
// partial first and a partial last equation) and runs each group's
// x-updates as one panel product per iteration. The factorizations are
// reused across the whole λ path of a bootstrap, as in the serial solver.
type VecFactorization struct {
	block *VecBlock
	rho   float64
	// eqLo/eqHi bound the equations with local rows; per-equation data is
	// indexed by eq − eqLo.
	eqLo, eqHi int
	groups     []eqGroup
	// Equation eq − eqLo is column col of group group's panels, with
	// right-hand side base aty = (local rows of X)ᵀ·(their responses).
	group, col []int
	aty        [][]float64
}

// eqGroup is the factorization the equations over one local sample range
// share, and how many equations that is.
type eqGroup struct {
	fac *admm.Factorization
	eqs int
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
// and a kernel worker budget for the Gram products and factorizations (≤0
// selects mat.DefaultWorkers). Ranks sharing a machine pass their share so
// the collective construction does not oversubscribe the cores.
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
	f.group = make([]int, nEq)
	f.col = make([]int, nEq)
	f.aty = make([][]float64, nEq)
	var ranges [][2]int // the sample range [s0, s1) of each group
	for e := range nEq {
		// Equation j's local rows are the contiguous [lo, hi), views of the
		// design rows of samples [lo, hi) + GLo − j·M.
		j := f.eqLo + e
		lo := max(b.GLo, j*b.M) - b.GLo
		hi := min(b.GHi, (j+1)*b.M) - b.GLo
		rows := mat.NewDenseData(hi-lo, b.Q, b.X.Data[lo*b.Q:hi*b.Q])
		f.aty[e] = mat.AtVecWorkers(rows, b.Y[lo:hi], workers)
		key := [2]int{b.GLo + lo - j*b.M, b.GLo + hi - j*b.M}
		g := slices.Index(ranges, key)
		if g < 0 {
			fac, err := admm.NewFactorizationGramWorkers(mat.AtAWorkers(rows, workers), rho, workers)
			if err != nil {
				return nil, err
			}
			g = len(ranges)
			ranges = append(ranges, key)
			f.groups = append(f.groups, eqGroup{fac: fac})
		}
		f.group[e], f.col[e] = g, f.groups[g].eqs
		f.groups[g].eqs++
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
	return f.run(comm, opts, zRule{soft: lambda > 0, k: lambda / (f.rho * float64(comm.Size()))})
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
	return f.run(comm, opts, zRule{support: support})
}

// zRule is the z-update of one element from the consensus mean of x + u:
// the projection onto support when it is set, else the soft threshold at k
// when soft is set, else the mean itself.
type zRule struct {
	support []bool
	soft    bool
	k       float64
}

func (r *zRule) at(i int, mean float64) float64 {
	switch {
	case r.support != nil:
		if !r.support[i] {
			return 0
		}
	case r.soft:
		return admm.SoftThreshold(mean, r.k)
	}
	return mean
}

// panel is one group's x-update state: the right-hand sides a + ρ(z − u)
// of its equations as the columns of a row-major Q×stride panel, and the
// product's panel (Q rounded up to 4 rows).
type panel struct {
	r, x   []float64
	stride int
}

// run is the consensus ADMM loop Solve and SolveProjected share. Each
// iteration makes one panel product per group, one pass over the Q·P
// coordinates before the Allreduce of Σ(x+u) and the local residual sums,
// and one after it; every sum accumulates in coordinate order.
func (f *VecFactorization) run(comm *mpi.Comm, opts *admm.Options, rule zRule) *admm.Result {
	o := optsWithDefaults(opts)
	b := f.block
	qTot, q, rho := b.GlobalCols(), b.Q, f.rho
	nRanks := float64(comm.Size())

	z := make([]float64, qTot)
	u := make([]float64, qTot)
	if o.WarmZ != nil {
		copy(z, o.WarmZ)
	}
	if o.WarmU != nil {
		copy(u, o.WarmU)
	}
	x := make([]float64, qTot)
	buf := make([]float64, qTot+3)
	panels := make([]panel, len(f.groups))
	for g, grp := range f.groups {
		stride := (grp.eqs + 7) &^ 7
		panels[g] = panel{r: make([]float64, q*stride), x: make([]float64, ((q+3)&^3)*stride), stride: stride}
	}
	// colOf returns the panels of equation j's group and its column there,
	// or nil for an equation without local rows.
	colOf := func(j int) (*panel, int) {
		if j < f.eqLo || j >= f.eqHi {
			return nil, 0
		}
		e := j - f.eqLo
		return &panels[f.group[e]], f.col[e]
	}
	// setRHS writes equation j's right-hand side a + ρ(z − u) down its
	// column of the r panel.
	setRHS := func(j int) {
		p, c := colOf(j)
		if p == nil {
			return
		}
		for i, a := range f.aty[j-f.eqLo] {
			p.r[i*p.stride+c] = a + float64(rho*(z[j*q+i]-u[j*q+i]))
		}
	}
	for j := f.eqLo; j < f.eqHi; j++ {
		setRHS(j)
	}
	sqrtN := math.Sqrt(float64(qTot) * nRanks)
	// The primal tolerance uses √nRanks·mat.Norm2(z) (scaled: a max pass,
	// then a division per entry). Far from convergence the plain Σz² the
	// z-update pass sums screens it out, as admm.SolveRHSBatch's stopping
	// test does (DESIGN.md §6): inside [1e-180, 1e300] its root agrees with
	// Norm2(z) to a relative (Q·P+5)·2⁻⁵³, far inside the slack, so
	// aboveScreen only ever answers "primal certainly above its
	// tolerance"; near the tolerance, out of range or with a NaN the exact
	// test decides.
	slack := 1 + float64(4*float64(qTot+8)*0x1p-52)
	aboveScreen := func(primal, normX, sqZ float64) bool {
		normZ := math.Sqrt(nRanks) * math.Sqrt(sqZ)
		return sqZ >= 1e-180 && sqZ <= 1e300 &&
			primal > (float64(sqrtN*o.AbsTol)+float64(o.RelTol*math.Max(normX, normZ)))*slack
	}

	var primal, dual float64
	iters := 0
	converged := false
	for iter := 1; iter <= o.MaxIter; iter++ {
		iters = iter
		// x-update: one inverse product per group where this rank has
		// rows, x = z − u elsewhere; then x + u and the local sums.
		for g, grp := range f.groups {
			p := &panels[g]
			grp.fac.XUpdatePanel(p.x, p.r, p.stride, p.stride)
		}
		var localPrimal, localXSq, localUSq float64
		for j := 0; j < b.P; j++ {
			zj, uj, xj, sj := z[j*q:(j+1)*q], u[j*q:(j+1)*q], x[j*q:(j+1)*q], buf[j*q:(j+1)*q]
			if p, c := colOf(j); p != nil {
				for i := range xj {
					xj[i] = p.x[i*p.stride+c]
				}
			} else {
				for i := range xj {
					xj[i] = zj[i] - uj[i]
				}
			}
			for i, xv := range xj {
				uv := uj[i]
				sj[i] = xv + uv
				d := xv - zj[i]
				localPrimal += float64(d * d)
				localXSq += float64(xv * xv)
				localUSq += float64(uv * uv)
			}
		}
		buf[qTot] = localPrimal
		buf[qTot+1] = localXSq
		buf[qTot+2] = localUSq
		comm.Allreduce(mpi.OpSum, buf)

		// Global z-update, u-update, the dual residual and Σz², and the
		// next right-hand sides.
		var dualSq, sqZ float64
		for j := 0; j < b.P; j++ {
			zj, uj, xj, sj := z[j*q:(j+1)*q], u[j*q:(j+1)*q], x[j*q:(j+1)*q], buf[j*q:(j+1)*q]
			for i, s := range sj {
				zv := rule.at(j*q+i, s/nRanks)
				d := zv - zj[i]
				dualSq += float64(d * d)
				sqZ += float64(zv * zv)
				uj[i] += xj[i] - zv
				zj[i] = zv
			}
			setRHS(j)
		}

		// Stopping test: the dual condition first (it needs no norm of z),
		// then the screened primal one, then the exact primal one.
		primal = math.Sqrt(buf[qTot])
		dual = rho * math.Sqrt(nRanks) * math.Sqrt(dualSq)
		normX := math.Sqrt(buf[qTot+1])
		normU := math.Sqrt(buf[qTot+2])
		epsDual := float64(sqrtN*o.AbsTol) + float64(o.RelTol*rho*normU)
		if !(dual <= epsDual) || aboveScreen(primal, normX, sqZ) {
			continue
		}
		normZ := math.Sqrt(nRanks) * mat.Norm2(z)
		epsPrimal := float64(sqrtN*o.AbsTol) + float64(o.RelTol*math.Max(normX, normZ))
		if primal <= epsPrimal {
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
	tr.Add("admm/chol_solves", int64(iters)*int64(f.eqHi-f.eqLo))
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
