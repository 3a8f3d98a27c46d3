package uoi

import (
	"fmt"
	"math"
	"time"

	"uoivar/internal/admm"
	"uoivar/internal/mat"
	"uoivar/internal/trace"
	"uoivar/internal/varsim"
)

// VARConfig configures UoI_VAR (paper Algorithm 2).
type VARConfig struct {
	// Order is the autoregressive order d (default 1).
	Order int
	// NoIntercept drops the μ term; by default the design carries an
	// intercept, matching Algorithm 2's partition into (A_1..A_d) and μ.
	NoIntercept bool
	// BlockLen is the block-bootstrap block length; 0 selects ⌈√m⌉ where m
	// is the design row count, a standard rate-optimal choice.
	BlockLen int
	// B1, B2, Lambdas, Q, LambdaRatio, Seed, TrainFrac, SupportTol, ADMM:
	// as in LassoConfig.
	B1, B2      int
	Lambdas     []float64 // explicit λ grid (overrides Q/LambdaRatio)
	Q           int       // λ-grid size when Lambdas is nil
	LambdaRatio float64   // λ_min/λ_max of the generated grid
	Seed        uint64    // root RNG seed; fixes every bootstrap
	TrainFrac   float64   // estimation train/eval split fraction
	SupportTol  float64   // |β| threshold for support membership
	// SelectionFrac and MedianUnion as in LassoConfig: soft intersection
	// threshold and robust union.
	SelectionFrac float64
	MedianUnion   bool // median instead of mean in the estimation union
	// L2 adds an elastic-net ℓ2 penalty to every selection solve
	// (UoI_ElasticNet for VAR); estimation remains OLS on the supports.
	L2 float64
	// Workers runs bootstraps concurrently (in-process P_B parallelism);
	// results are identical at any worker count. 0/1 = sequential.
	Workers int
	// KernelWorkers bounds per-kernel-call goroutine parallelism, exactly as
	// LassoConfig.KernelWorkers: 0 derives GOMAXPROCS/streams, negative
	// forces the full-machine default.
	KernelWorkers int
	// Anchored switches the selection bootstraps from window-relative
	// moving blocks to blocks anchored at ABSOLUTE stream coordinates
	// (resample.AnchoredBlockBootstrap): the series is declared to start at
	// stream offset Anchor, and bootstrap blocks align to a fixed grid of
	// BlockLen-length blocks in stream coordinates. Two fits over windows
	// that cover the same grid blocks then draw the same absolute rows, so
	// their selection cells key identically in the CellCache — this is what
	// lets a streaming refit after a small window slide reuse its cells.
	// Like WarmBeta, (Anchored, Anchor) is part of the fit's identity: the
	// default (false) reproduces prior releases bit for bit.
	Anchored bool
	// Anchor is the absolute stream offset of series row 0 (only read when
	// Anchored is set; the streaming engine passes Buffer.Total−Buffer.Len).
	Anchor int64
	// WarmBeta, when its length equals the fit's betaLen (rowsB·p), seeds
	// every selection bootstrap's λ sweep from a previous model's vec(B):
	// the sweep runs smallest-λ-first (where the seed is close) and chains
	// warm starts upward. It is part of the fit's identity — two fits with
	// the same series, config, and WarmBeta produce bit-identical results,
	// which is what lets a streaming warm refit equal a cold fit exactly.
	// A mismatched length is ignored (cold sweep).
	WarmBeta []float64
	// Cells, when non-nil, memoizes completed bootstrap cells across fits
	// keyed by the exact bytes that determine each cell's output (see
	// CellCache). Purely an execution hint: hits skip recomputation but
	// never change results. Diagnostics (LassoFits, ADMMIters) count only
	// the work actually performed.
	Cells CellCache
	// Trace, when non-nil, records per-phase spans and solver counters for
	// this fit (see LassoConfig.Trace). VAR adds kron_assembly spans for the
	// design-construction work.
	Trace *trace.Tracer
	// Checkpoint, when non-nil, runs the fit in checkpointed mode (see
	// CheckpointConfig): completed cells are durable and a crashed fit
	// resumes bit-identically.
	Checkpoint *CheckpointConfig
	// Placement, when non-nil, runs the fit across the ranks of its
	// communicator (see Placement). Partitioned, the leading NReaders ranks
	// of every ADMM group pass the series and the rest may pass nil.
	Placement *Placement
	// ADMM tunes the inner solver, as in LassoConfig.
	ADMM admm.Options
}

func (c *VARConfig) defaults() VARConfig {
	var o VARConfig
	if c != nil {
		o = *c
	}
	positive(&o.Order, 1)
	positive(&o.B1, 20)
	positive(&o.B2, 10)
	positive(&o.Q, 8)
	fraction(&o.LambdaRatio, 1e-3)
	fraction(&o.TrainFrac, 0.8)
	positive(&o.SupportTol, 1e-7)
	fraction(&o.SelectionFrac, 1)
	if o.ADMM.Trace == nil {
		o.ADMM.Trace = o.Trace
	}
	return o
}

// VARResult is a fitted UoI_VAR model.
type VARResult struct {
	// Beta is the averaged vectorized estimate vec(B) (Algorithm 2 line 30).
	Beta []float64
	// A holds the partitioned lag matrices A_1..A_d and Mu the intercept
	// (Algorithm 2 lines 31–32).
	A  []*mat.Dense
	Mu []float64 // intercept vector μ
	// Lambdas and Supports mirror the UoI_LASSO result (supports index into
	// vec(B)).
	Lambdas  []float64
	Supports [][]int // per-λ support indices into vec(B)
	// Diag carries phase timings; KronTime aggregates the vectorization /
	// Kronecker-construction work (design construction per bootstrap),
	// the paper's "distribution" phase analogue in the serial code.
	Diag     Diagnostics
	KronTime time.Duration // total design-assembly time (see Diag comment)
}

// VAR runs UoI_VAR on an N×p series at cfg.Placement, as Lasso does. A
// Partitioned placement runs the paper's full pipeline: per-bootstrap
// distributed Kronecker/vectorization assembly from reader windows,
// consensus LASSO-ADMM over the vectorized problem, and projected-OLS
// estimation.
func VAR(series *mat.Dense, cfg *VARConfig) (*VARResult, error) {
	c := cfg.defaults()
	pl, err := c.Placement.place(c.ask())
	if err != nil {
		return nil, err
	}
	var pb *problem
	if cons, ok := pl.(*consensus); ok {
		pb, err = newVARConsensusProblem(cons, series, &c, c.Placement)
	} else {
		pb, err = newVARProblem(series, &c, pl.streams())
	}
	if err != nil {
		return nil, err
	}
	fit, err := run(pb, pl)
	if err != nil {
		return nil, err
	}
	// Partition vec(B) into the lag matrices and intercept (pb.chains is
	// the channel count p).
	res := &VARResult{Beta: fit.Beta, Lambdas: fit.Lambdas, Supports: fit.Supports, Diag: fit.Diag, KronTime: pb.kron}
	res.A, res.Mu = varsim.PartitionVec(res.Beta, pb.chains, c.Order, !c.NoIntercept)
	return res, nil
}

// ask is what the fit asks of its placement.
func (c *VARConfig) ask() fitAsk {
	return fitAsk{fit: "VAR", ckpt: c.Checkpoint, workers: c.Workers,
		cells: c.Cells != nil, warm: c.WarmBeta != nil, l2: c.L2 > 0}
}

// CheckPlacement returns the ErrPlacement a fit of c would, as
// LassoConfig.CheckPlacement does.
func (c *VARConfig) CheckPlacement() error { return c.Placement.check(c.ask()) }

// varWindow resolves the design-row count m of an order-c.Order fit to an
// nTotal-sample series and its block-bootstrap length (⌈√m⌉ by default).
func varWindow(nTotal int, c *VARConfig) (m, blockLen int, err error) {
	if nTotal <= c.Order+4 {
		return 0, 0, fmt.Errorf("uoi: series of %d samples too short for order %d", nTotal, c.Order)
	}
	m, blockLen = nTotal-c.Order, c.BlockLen
	if blockLen <= 0 {
		blockLen = int(math.Ceil(math.Sqrt(float64(m))))
	}
	return m, blockLen, nil
}

// designXtY returns the q×p panel XᵀY of a design (q = X columns): column
// eq is the Xᵀy of equation eq, bit for bit GramVec of X with y_eq
// (mat.MulAtB). It is the right-hand side panel of the batched selection
// solve and, with XᵀX, the sufficient statistics every estimation fit on the
// design is solved from.
func designXtY(des *varsim.Design) *mat.Dense { return mat.MulAtB(des.X, des.Y) }

// vecLambdaMax is ‖(I⊗X)ᵀ vec(Y)‖∞ = max_j ‖Xᵀ y_j‖∞.
func vecLambdaMax(des *varsim.Design) float64 {
	if maxV := mat.NormInf(designXtY(des).Data); maxV > 0 {
		return maxV
	}
	return 1
}

// olsOnVecSupport fits the support-restricted OLS equation by equation (the
// vec problem is block separable) from the design's sufficient statistics
// gram = XᵀX and xty = XᵀY: equation eq with support columns S solves
// gram[S,S]·β = xty[S,eq].
func olsOnVecSupport(gram, xty *mat.Dense, support []int) []float64 {
	rowsB, p := gram.Rows, xty.Cols
	beta := make([]float64, rowsB*p)
	// Split the vec support into per-equation supports.
	perEq := make([][]int, p)
	for _, g := range support {
		eq := g / rowsB
		perEq[eq] = append(perEq[eq], g%rowsB)
	}
	for eq, cols := range perEq {
		if len(cols) == 0 {
			continue
		}
		rhs := make([]float64, len(cols))
		for i, j := range cols {
			rhs[i] = xty.At(j, eq)
		}
		sol := olsSubBlock(gram, cols, rhs)
		for i, j := range cols {
			beta[eq*rowsB+j] = sol[i]
		}
	}
	return beta
}

// olsSubBlock solves gram[idx,idx]·β = rhs, the least-squares fit on the
// columns idx of a design whose Gram was computed once (rhs is Xᵀy already
// restricted to idx).
func olsSubBlock(gram *mat.Dense, idx []int, rhs []float64) []float64 {
	sub := mat.NewDense(len(idx), len(idx))
	for i, j := range idx {
		row := gram.Row(j)
		for k, jk := range idx {
			sub.Data[i*len(idx)+k] = row[jk]
		}
	}
	return admm.OLSFromGram(sub, rhs)
}

// vecLoss is ½‖vec(Y) − (I⊗X)β‖², summed row by row over each equation's
// nonzero coefficients only: estimation and baseline candidates are sparse,
// so a prediction costs |support| multiply-adds, not a full design row, and
// no residual vector is materialised.
func vecLoss(des *varsim.Design, beta []float64) float64 {
	rowsB := des.X.Cols
	sum := 0.0
	var nz []int
	for eq := 0; eq < des.P; eq++ {
		b := beta[eq*rowsB : (eq+1)*rowsB]
		nz = nz[:0]
		for j, v := range b {
			if v != 0 {
				nz = append(nz, j)
			}
		}
		for i := 0; i < des.X.Rows; i++ {
			xr := des.X.Row(i)
			r := des.Y.At(i, eq)
			for _, j := range nz {
				r -= float64(xr[j] * b[j])
			}
			sum += float64(r * r)
		}
	}
	return 0.5 * sum
}
