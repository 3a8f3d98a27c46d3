// Package admm implements the constrained convex optimization solvers at
// the core of UoI_LASSO and UoI_VAR: the LASSO via the Alternating
// Direction Method of Multipliers (paper §II-C, following Boyd et al.), a
// distributed consensus variant over the mpi runtime, and ordinary least
// squares as the λ=0 specialization — exactly how the paper implements OLS
// ("the ordinary least squares (OLS) is implemented using LASSO-ADMM ...
// by setting regularization parameter λ to 0").
//
// The iteration is written twice, once per contract (DESIGN.md §6):
//
//   - the serial loop, Factorization.solveColumns, iterates a panel of
//     independent right-hand sides in lock-step and stops and retires each
//     column on its own test; Solve and SolveRHS are its one-column case,
//     SolveRHSBatch its many-column case;
//   - the consensus loop, ConsensusSolver.run, iterates one consensus
//     vector of block-diagonal equations across ranks with one Allreduce per
//     iteration and one joint stopping test over the whole vector; the
//     LASSO is its one-equation case, the Kronecker VAR problem
//     (internal/kron) its many-equation case.
//
// Both run every x-update through Factorization.XUpdatePanel: a one-column
// panel goes through the GEMV tile, a wider one through the panel product,
// and the two give the same bits per column. The serial loop's z/u pass
// (zuPass) on a wider panel is a vector kernel on amd64 (zu_amd64.s), over
// 8-column strips with AVX-512 and 4-column strips with AVX2, whichever
// mat.Kernel names: lanes are columns, rows run in order and no product is
// fused into its add, so it returns the portable loop's bits. The portable loop
// runs one-column panels, purego and other GOARCHes, and is the kernel's
// test oracle. The consensus loop's pass stays scalar: its sums run over the
// whole vector, which lanes would reorder.
//
// A cyclic coordinate-descent LASSO is included as an independent reference
// solver for validation and the solver-choice ablation bench.
package admm

import (
	"math"

	"uoivar/internal/mat"
	"uoivar/internal/trace"
)

// Options configures an ADMM solve.
type Options struct {
	// Rho is the augmented-Lagrangian penalty parameter. Zero (the
	// default) auto-scales ρ to the mean diagonal of the Gram matrix,
	// which keeps the iteration count stable regardless of data scaling.
	Rho float64
	// MaxIter caps ADMM iterations. Zero selects 500.
	MaxIter int
	// AbsTol and RelTol are the standard primal/dual stopping tolerances
	// (Boyd §3.3). Zeros select 1e-6 and 1e-4.
	AbsTol, RelTol float64
	// WarmZ and WarmU, if non-nil, seed the consensus iterate z and the
	// scaled dual u (both length p) — used when sweeping the λ path within
	// a bootstrap. Boyd's warm start carries both: reseeding z alone
	// restarts the dual from zero and forfeits most of the saved
	// iterations. The previous solve's pair is available as Result.Beta
	// and Result.U.
	WarmZ, WarmU []float64
	// KernelWorkers bounds the goroutine parallelism of the dense kernels
	// (AtA, Cholesky) run by the convenience solvers that build their own
	// factorizations. ≤0 selects mat.DefaultWorkers. Pipeline callers that
	// construct factorizations themselves pass the budget to the *Workers
	// constructors instead.
	KernelWorkers int
	// Trace, when non-nil, receives solver counters: "admm/solves",
	// "admm/iters" and "admm/chol_solves" per Solve, "admm/factorizations"
	// per factorization built through an Options-carrying entry point.
	// A nil tracer costs one nil check.
	Trace *trace.Tracer
}

func (o *Options) defaults() Options {
	out := Options{Rho: 0, MaxIter: 500, AbsTol: 1e-6, RelTol: 1e-4}
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

// countSolves folds the work of `solves` solves totalling iters iterations
// and xUpdates single-vector x-updates into the tracer (nil-safe). The
// x-update counter's name predates the explicit inverse.
func countSolves(tr *trace.Tracer, solves, iters, xUpdates int) {
	if tr == nil {
		return
	}
	tr.Add("admm/solves", int64(solves))
	tr.Add("admm/iters", int64(iters))
	tr.Add("admm/chol_solves", int64(xUpdates))
}

// Result reports a solve outcome.
type Result struct {
	Beta       []float64 // the consensus estimate z
	U          []float64 // the scaled dual at exit — seeds WarmU on the next λ
	Iters      int
	Converged  bool
	PrimalRes  float64
	DualRes    float64
	Objective  float64 // ½‖Xβ−y‖² + λ‖β‖₁ at Beta
	AllreduceN int     // number of Allreduce-equivalent rounds (1 per iter in the distributed solver; 0 serially)
}

// SoftThreshold applies the scalar shrinkage operator S_k(a).
func SoftThreshold(a, k float64) float64 {
	switch {
	case a > k:
		return a - k
	case a < -k:
		return a + k
	default:
		return 0
	}
}

// Objective evaluates ½‖Xβ−y‖² + λ‖β‖₁, running the product Xβ across at
// most workers goroutines (≤0 selects mat.DefaultWorkers).
func Objective(x *mat.Dense, y, beta []float64, lambda float64, workers int) float64 {
	r := mat.Sub(mat.MulVecWorkers(x, beta, workers), y)
	return float64(0.5*mat.Dot(r, r)) + float64(lambda*mat.Norm1(beta))
}

// Factorization caches M = (XᵀX + ρI)⁻¹ together with Xᵀy, so a λ path
// over the same bootstrap sample re-uses one factorization — the
// optimization that makes the per-bootstrap λ sweep cheap — and every
// x-update is one product with M (XUpdate).
type Factorization struct {
	inv *mat.Inverse
	aty []float64
	rho float64
	p   int
}

// NewFactorizationWorkers precomputes the factors for design x and response
// y, running the Gram product and Cholesky across at most workers
// goroutines (≤0 selects mat.DefaultWorkers).
func NewFactorizationWorkers(x *mat.Dense, y []float64, rho float64, workers int) (*Factorization, error) {
	f, err := NewFactorizationGramWorkers(mat.AtAWorkers(x, workers), rho, workers)
	if err != nil {
		return nil, err
	}
	f.aty = mat.AtVecWorkers(x, y, workers)
	return f, nil
}

// NewFactorizationGramWorkers inverts XᵀX + ρI from a precomputed Gram
// matrix, running the blocked Cholesky under the inverse across at most
// workers goroutines. The returned factorization has no response attached;
// use SolveRHS with explicit Xᵀy vectors. UoI_VAR uses this to share one
// factorization across all p equations of a bootstrap (the design block X
// is identical; only the response column differs).
//
// rho ≤ 0 auto-scales the penalty to the mean Gram diagonal.
func NewFactorizationGramWorkers(gram *mat.Dense, rho float64, workers int) (*Factorization, error) {
	return NewFactorizationElasticWorkers(gram, rho, 0, workers)
}

// XUpdate sets x = (XᵀX + ρI)⁻¹·rhs as one product of the cached inverse
// with a vector (mat.Inverse.MulVec, the GEMV tile).
func (f *Factorization) XUpdate(x, rhs []float64) { f.inv.MulVec(x, rhs) }

// XUpdatePanel is the x-update of both ADMM loops: it sets x = M·rhs on the
// leading cols columns (a multiple of 8) of two row-major panels with row
// stride stride, rhs with p rows and x with p rounded up to 4
// (mat.Inverse.MulPanel). A one-column panel (stride 1, see panelStride) is
// a contiguous vector and goes through XUpdate instead; cols is then
// ignored. Column e of a panel product is bit for bit XUpdate of column e of
// rhs, so the shape-based choice never shows in the bits.
func (f *Factorization) XUpdatePanel(x, rhs []float64, stride, cols int) {
	if stride == 1 {
		f.XUpdate(x, rhs)
		return
	}
	f.inv.MulPanel(x, rhs, stride, cols)
}

// MeanDiag returns the mean diagonal entry of a square matrix (1 when the
// mean is nonpositive), the auto-scaling value for ρ.
func MeanDiag(gram *mat.Dense) float64 {
	if gram.Rows == 0 {
		return 1
	}
	s := 0.0
	for i := 0; i < gram.Rows; i++ {
		s += gram.At(i, i)
	}
	s /= float64(gram.Rows)
	if s <= 0 {
		return 1
	}
	return s
}

// Lasso solves min ½‖Xβ−y‖² + λ‖β‖₁ with serial ADMM.
func Lasso(x *mat.Dense, y []float64, lambda float64, opts *Options) (*Result, error) {
	o := opts.defaults()
	res, err := solveDense(x, y, lambda, 0, &o)
	if err != nil {
		return nil, err
	}
	res.Objective = Objective(x, y, res.Beta, lambda, o.KernelWorkers)
	return res, nil
}

// solveDense factors (XᵀX + (ρ+λ₂)I) of a dense design under
// o.KernelWorkers, books the factorization, and solves at lambda1: the body
// of the convenience solvers Lasso and ElasticNet. o has its defaults.
func solveDense(x *mat.Dense, y []float64, lambda1, lambda2 float64, o *Options) (*Result, error) {
	f, err := NewFactorizationElasticWorkers(mat.AtAWorkers(x, o.KernelWorkers), o.Rho, lambda2, o.KernelWorkers)
	if err != nil {
		return nil, err
	}
	f.aty = mat.AtVecWorkers(x, y, o.KernelWorkers)
	o.Trace.Add("admm/factorizations", 1)
	return f.Solve(lambda1, o), nil
}

// Solve runs the ADMM iteration against the cached factorization.
// With λ=0 the z-update reduces to z = x + u, i.e. OLS.
func (f *Factorization) Solve(lambda float64, opts *Options) *Result {
	return f.SolveRHS(f.aty, lambda, opts)
}

// SolveRHS is Solve with an explicit right-hand side Xᵀy, for
// factorizations shared across responses: the serial loop on a one-column
// panel, warm-started from opts.WarmZ and opts.WarmU.
func (f *Factorization) SolveRHS(aty []float64, lambda float64, opts *Options) *Result {
	o := opts.defaults()
	out := make([]Result, 1)
	f.solveColumns(mat.NewDenseData(f.p, 1, aty[:f.p]), 0, 1, lambda, [][]float64{o.WarmZ}, [][]float64{o.WarmU}, &o, out)
	return &out[0]
}

// Support returns the indices with |beta_i| > tol, the support-extraction
// step of Algorithm 1 line 6.
func Support(beta []float64, tol float64) []int {
	var s []int
	for i, v := range beta {
		if math.Abs(v) > tol {
			s = append(s, i)
		}
	}
	return s
}
