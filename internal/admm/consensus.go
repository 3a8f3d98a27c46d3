package admm

import (
	"math"
	"slices"

	"uoivar/internal/mat"
	"uoivar/internal/mpi"
)

// ConsensusSolver runs distributed LASSO/OLS consensus ADMM across the
// ranks of a communicator, with each rank holding a row block of the global
// design. This is the distributed LASSO-ADMM of paper §II-C: "each compute
// core is responsible for computation of its own objective (x) and
// constraint (z) variables ... so that all the cores converge to a common
// value of estimates", with the global z-update performed through
// MPI_Allreduce — the call the paper identifies as >99% of communication.
//
// Formulation (Boyd §8.2, splitting across examples): each rank i keeps a
// local x_i and scaled dual u_i; the shared z-update is
//
//	z = S_{λ/(ρN)}( mean_i(x_i + u_i) )
//
// one Allreduce of the consensus vector per iteration.
//
// The consensus vector is eqs equations of q coordinates each, and a rank's
// design is block diagonal over them: the LASSO is one equation of which
// every rank holds a row block, the Kronecker VAR problem (internal/kron) p
// equations of which a rank holds those its rows fall in. Each held equation
// has its own Xᵀy and a Factorization it may share with other held
// equations (those over the same rows); an equation the rank holds no rows
// of contributes x = z − u. The factorizations are computed once at
// construction and shared across the whole λ path and the projected-OLS
// estimation solves, exactly as the serial Factorization is.
type ConsensusSolver struct {
	comm   *mpi.Comm
	rho    float64
	q, eqs int // coordinates per equation, equations
	// The rank holds equations [lo, lo+len(aty)): equation lo+e has
	// right-hand side base aty[e] and is column col[e] of group group[e].
	lo         int
	aty        [][]float64
	group, col []int
	groups     []eqGroup
}

// eqGroup is one factorization the held equations share and how many share
// it: their x-updates are one panel product per iteration.
type eqGroup struct {
	f   *Factorization
	eqs int
}

// NewConsensusSolverWorkers factors this rank's row block (xLocal, yLocal)
// of a LASSO design, running its Gram product and Cholesky across at most
// workers goroutines (≤0 selects mat.DefaultWorkers); ranks sharing one
// machine pass GOMAXPROCS/size so the collective construction does not
// oversubscribe the cores. The call is collective: when rho ≤ 0 the
// auto-scaled penalty is agreed across ranks with one Allreduce (every rank
// must use the identical ρ for the shared z-update to be a valid prox step).
func NewConsensusSolverWorkers(comm *mpi.Comm, xLocal *mat.Dense, yLocal []float64, rho float64, workers int) (*ConsensusSolver, error) {
	return NewConsensusSolverGram(comm, mat.AtAWorkers(xLocal, workers), mat.AtVecWorkers(xLocal, yLocal, workers), rho, 0, workers)
}

// NewConsensusSolverGram builds the solver from this rank's sufficient
// statistics gram = X_iᵀX_i and xty = X_iᵀy_i, so a caller that resamples its
// block passes weighted sums over the original rows instead of a gathered
// copy. lambda2 is the global elastic-net ℓ2 penalty (0 for the LASSO): the
// x-update solves (X_iᵀX_i + (ρ+λ₂/N)I) — the consensus objective sums
// rank-local f_i(x_i), so each of the N ranks carries λ₂/N — while the shared
// z-update shrinkage stays at scale ρ. Collective like
// NewConsensusSolverWorkers.
func NewConsensusSolverGram(comm *mpi.Comm, gram *mat.Dense, xty []float64, rho, lambda2 float64, workers int) (*ConsensusSolver, error) {
	if rho <= 0 {
		rho = comm.AllreduceScalar(mpi.OpSum, MeanDiag(gram)) / float64(comm.Size())
		if rho <= 0 {
			rho = 1
		}
	}
	f, err := NewFactorizationElasticWorkers(gram, rho, lambda2/float64(comm.Size()), workers)
	if err != nil {
		return nil, err
	}
	return NewConsensusSolverGroups(comm, gram.Cols, 1, 0, []*Factorization{f}, [][]float64{xty}, rho), nil
}

// NewConsensusSolverGroups is the solver of a block-diagonal consensus
// problem of eqs equations with q coordinates each. This rank holds
// equations [lo, lo+len(facs)): equation lo+e has x-update facs[e] and
// right-hand side base aty[e] (its local Xᵀy), and equations given the same
// *Factorization form one group. rho is the ρ of every factorization and
// the same on every rank, which a rank without equations needs for the
// z-update.
func NewConsensusSolverGroups(comm *mpi.Comm, q, eqs, lo int, facs []*Factorization, aty [][]float64, rho float64) *ConsensusSolver {
	s := &ConsensusSolver{comm: comm, rho: rho, q: q, eqs: eqs, lo: lo, aty: aty, group: make([]int, len(facs)), col: make([]int, len(facs))}
	for e, f := range facs {
		g := slices.IndexFunc(s.groups, func(g eqGroup) bool { return g.f == f })
		if g < 0 {
			g = len(s.groups)
			s.groups = append(s.groups, eqGroup{f: f})
		}
		s.group[e], s.col[e] = g, s.groups[g].eqs
		s.groups[g].eqs++
	}
	return s
}

// Solve runs consensus ADMM at the given λ (λ=0 is distributed OLS). All
// ranks must call collectively; every rank returns the identical consensus
// estimate.
func (s *ConsensusSolver) Solve(lambda float64, opts *Options) *Result {
	return s.run(opts, zRule{soft: lambda > 0, k: lambda / (s.rho * float64(s.comm.Size()))})
}

// SolveProjected runs consensus OLS restricted to the support mask: the
// z-update projects onto the support. This is the distributed estimation
// solve (Algorithm 1 line 18, Algorithm 2 line 24) implemented exactly as
// the paper does ("OLS is implemented using LASSO-ADMM ... by setting
// regularization parameter λ to 0", with the support constraint folded into
// the z-update).
func (s *ConsensusSolver) SolveProjected(support []bool, opts *Options) *Result {
	if len(support) != s.q*s.eqs {
		panic("admm: support length mismatch")
	}
	return s.run(opts, zRule{support: support})
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
		return SoftThreshold(mean, r.k)
	}
	return mean
}

// panel is one group's x-update state: the right-hand sides a + ρ(z − u)
// of its equations as the columns of a row-major q×stride panel, and the
// product's panel (q rounded up to 4 rows).
type panel struct {
	r, x   []float64
	stride int
}

// run is the consensus ADMM loop. Each iteration makes one x-update per
// group, one pass over the consensus vector before the Allreduce of Σ(x+u)
// and the local residual sums, and one after it; every sum accumulates in
// coordinate order, and the stopping test is one joint test over the whole
// vector, identical on every rank since its terms come from the Allreduce.
func (s *ConsensusSolver) run(opts *Options, rule zRule) *Result {
	o := opts.defaults()
	n, q, rho := s.q*s.eqs, s.q, s.rho
	nRanks := float64(s.comm.Size())

	z := make([]float64, n)
	u := make([]float64, n)
	if o.WarmZ != nil {
		copy(z, o.WarmZ)
	}
	if o.WarmU != nil {
		copy(u, o.WarmU)
	}
	x := make([]float64, n)
	// buf carries [ Σ(x_i+u_i) | Σ‖x_i−z‖² | Σ‖x_i‖² | Σ‖u_i‖² ] in one
	// Allreduce per iteration, matching the single-collective structure the
	// paper measures.
	buf := make([]float64, n+3)
	panels := make([]panel, len(s.groups))
	for g, grp := range s.groups {
		stride := panelStride(grp.eqs)
		panels[g] = panel{r: make([]float64, q*stride), x: make([]float64, ((q+3)&^3)*stride), stride: stride}
	}
	// colOf returns the panels of equation j's group and its column there,
	// or nil for an equation without local rows.
	colOf := func(j int) (*panel, int) {
		e := j - s.lo
		if e < 0 || e >= len(s.aty) {
			return nil, 0
		}
		return &panels[s.group[e]], s.col[e]
	}
	// setRHS writes equation j's right-hand side a + ρ(z − u) down its
	// column of the r panel.
	setRHS := func(j int) {
		p, c := colOf(j)
		if p == nil {
			return
		}
		for i, a := range s.aty[j-s.lo] {
			p.r[i*p.stride+c] = a + float64(rho*(z[j*q+i]-u[j*q+i]))
		}
	}
	for j := range s.eqs {
		setRHS(j)
	}
	sqrtN := math.Sqrt(float64(n) * nRanks)
	screen := newStopScreen(n, float64(sqrtN*o.AbsTol))

	var primal, dual float64
	iters := 0
	converged := false
	for iter := 1; iter <= o.MaxIter; iter++ {
		iters = iter
		// x-update: one inverse product per group, x = z − u for the
		// equations without local rows; then x + u and the local sums.
		for g, grp := range s.groups {
			p := &panels[g]
			grp.f.XUpdatePanel(p.x, p.r, p.stride, p.stride)
		}
		var localPrimal, localXSq, localUSq float64
		for j := range s.eqs {
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
		buf[n], buf[n+1], buf[n+2] = localPrimal, localXSq, localUSq
		s.comm.Allreduce(mpi.OpSum, buf)

		// Global z-update, local u-update, the dual residual and Σz², and
		// the next right-hand sides.
		var dualSq, sqZ float64
		for j := range s.eqs {
			zj, uj, xj, sj := z[j*q:(j+1)*q], u[j*q:(j+1)*q], x[j*q:(j+1)*q], buf[j*q:(j+1)*q]
			for i, sum := range sj {
				zv := rule.at(j*q+i, sum/nRanks)
				d := zv - zj[i]
				dualSq += float64(d * d)
				sqZ += float64(zv * zv)
				uj[i] += xj[i] - zv
				zj[i] = zv
			}
			setRHS(j)
		}

		// Stopping test: the dual condition first (it needs no norm of z),
		// then the primal one screened by Σz², then the exact primal one.
		primal = math.Sqrt(buf[n])
		dual = rho * math.Sqrt(nRanks) * math.Sqrt(dualSq)
		normX := math.Sqrt(buf[n+1])
		normU := math.Sqrt(buf[n+2])
		epsDual := float64(sqrtN*o.AbsTol) + float64(o.RelTol*rho*normU)
		if !(dual <= epsDual) || screen.above(primal, o.RelTol, normX, math.Sqrt(nRanks), sqZ) {
			continue
		}
		normZ := math.Sqrt(nRanks) * mat.Norm2(z)
		epsPrimal := float64(sqrtN*o.AbsTol) + float64(o.RelTol*math.Max(normX, normZ))
		if primal <= epsPrimal {
			converged = true
			break
		}
	}
	countSolves(o.Trace, 1, iters, iters*len(s.aty))
	return &Result{
		Beta:       z,
		U:          u,
		Iters:      iters,
		Converged:  converged,
		PrimalRes:  primal,
		DualRes:    dual,
		AllreduceN: iters,
	}
}
