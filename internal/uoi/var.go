package uoi

import (
	"fmt"
	"math"
	"time"

	"uoivar/internal/admm"
	"uoivar/internal/checkpoint"
	"uoivar/internal/mat"
	"uoivar/internal/mpi"
	"uoivar/internal/resample"
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
	// Workers is how many bootstrap cells of a phase run side by side in
	// this process, as LassoConfig.Workers: 1 runs them one at a time, 0
	// on min(GOMAXPROCS, the phase's cells) goroutines. Results are
	// identical at any worker count.
	Workers int
	// KernelWorkers bounds the goroutine parallelism inside each cell —
	// dense kernels, the batched selection solve, and the estimation
	// cell's candidate OLS fits and held-out losses — exactly as
	// LassoConfig.KernelWorkers: 0 derives GOMAXPROCS divided by a phase's
	// streams (or the world size at a placement), negative forces the
	// full-machine default.
	KernelWorkers int
	// Anchored switches the selection bootstraps from window-relative
	// moving blocks to blocks anchored at ABSOLUTE stream coordinates
	// (resample.AnchoredBlockBootstrap): the series is declared to start at
	// stream offset Anchor, and bootstrap blocks align to a fixed grid of
	// BlockLen-length blocks in stream coordinates, so two fits over
	// windows that cover the same grid blocks draw the same absolute rows.
	// The design needs at least 2·BlockLen−1 rows to hold one whole grid
	// block; a shorter one is an error. Like WarmBeta, (Anchored, Anchor)
	// is part of the fit's identity: the default (false) reproduces prior
	// releases bit for bit.
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
	// Trace, when non-nil, records per-phase spans and solver counters for
	// this fit (see LassoConfig.Trace). VAR adds a kron_assembly span for
	// building the lagged design, and the Kronecker baselines one per
	// bootstrap assembly.
	Trace *trace.Tracer
	// Checkpoint, when non-nil, runs the fit in checkpointed mode (see
	// CheckpointConfig): completed cells are durable and a crashed fit
	// resumes bit-identically.
	Checkpoint *CheckpointConfig
	// Placement, when non-nil, runs the fit across the ranks of its
	// communicator (see Placement). Partitioned, the leading NReaders ranks
	// of every ADMM group pass the series and the rest may pass nil; world
	// rank 0 broadcasts it and the result is the serial fit's, unless the
	// Placement's Assembly names the Kronecker baseline.
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
	// The rest are the defaults of the vectorised problem's LassoConfig.
	l := o.vec().defaults()
	o.B1, o.B2, o.Q, o.LambdaRatio, o.TrainFrac = l.B1, l.B2, l.Q, l.LambdaRatio, l.TrainFrac
	o.SupportTol, o.SelectionFrac, o.ADMM = l.SupportTol, l.SelectionFrac, l.ADMM
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
	// Diag carries phase timings; KronTime is the design-construction
	// work, the paper's "distribution" phase analogue in the serial code:
	// the one build of the full lagged design, which every bootstrap then
	// samples in place, plus a partitioned fit's series broadcast. A
	// Kronecker baseline's is its per-bootstrap one-sided assembly.
	Diag     Diagnostics
	KronTime time.Duration // total design-assembly time (see Diag comment)
}

// VAR runs UoI_VAR on an N×p series at cfg.Placement, as Lasso does. A
// Partitioned placement takes the series from its reader ranks only. By
// default world rank 0 broadcasts it once and every rank runs the serial
// problem on the replicated-data grid, so the result is the serial fit bit
// for bit. A Kronecker Assembly runs the paper's full pipeline instead:
// per-bootstrap distributed Kronecker/vectorization assembly from reader
// windows, consensus LASSO-ADMM over the vectorized problem, and
// projected-OLS estimation.
func VAR(series *mat.Dense, cfg *VARConfig) (*VARResult, error) {
	c := cfg.defaults()
	pl, err := c.Placement.place(c.ask())
	if err != nil {
		return nil, err
	}
	var pb *problem
	var shared time.Duration // the series broadcast, when there is one
	if cons, ok := pl.(*consensus); ok {
		pb, err = newVARConsensusProblem(cons, series, &c, c.Placement)
	} else {
		if c.Placement != nil && c.Placement.Partitioned {
			series, shared, err = shareSeries(c.Placement, series, c.Trace)
		}
		if err == nil {
			pb, err = newVARProblem(series, &c, pl.streams())
		}
	}
	if err != nil {
		return nil, err
	}
	pb.kron += shared
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
		warm: c.WarmBeta != nil, l2: c.L2 > 0, tr: c.Trace}
}

// CheckPlacement returns the ErrPlacement a fit of c would, as
// LassoConfig.CheckPlacement does.
func (c *VARConfig) CheckPlacement() error { return c.Placement.check(c.ask()) }

// readers resolves a partitioned UoI_VAR fit's reader count for groups of
// groupSize ranks: NReaders, or min(groupSize, 8).
func (pl *Placement) readers(groupSize int) (int, error) {
	n := pl.NReaders
	if n <= 0 {
		n = min(groupSize, 8)
	}
	if n > groupSize {
		return 0, fmt.Errorf("uoi: %d readers exceed %d group ranks", n, groupSize)
	}
	return n, nil
}

// agreeSeries has the ranks of world agree, before any of them leaves the
// collective sequence, that every reader holds the series (isReader: this
// rank is one), and returns its shape as world rank 0, the first reader of
// the first group, holds it.
func agreeSeries(world *mpi.Comm, series *mat.Dense, isReader bool) (rows, cols int, err error) {
	valid := 1.0
	if isReader && series == nil {
		valid = 0
	}
	shape := make([]float64, 2)
	if world.Rank() == 0 && series != nil {
		shape[0], shape[1] = float64(series.Rows), float64(series.Cols)
	}
	if world.AllreduceScalar(mpi.OpMin, valid) == 0 {
		return 0, 0, fmt.Errorf("uoi: reader rank(s) missing the series")
	}
	world.Bcast(0, shape)
	return int(shape[0]), int(shape[1]), nil
}

// shareSeries gives every rank of a partitioned UoI_VAR fit at `at` the
// series its readers hold: once the ranks agree that every reader has it,
// world rank 0 broadcasts it, and every other rank fits that copy. It
// returns the series this rank fits and the time the exchange took (traced
// as series_bcast).
func shareSeries(at *Placement, series *mat.Dense, tr *trace.Tracer) (*mat.Dense, time.Duration, error) {
	world := at.Comm
	groupSize := world.Size() / at.Shape.normalize().Ranks()
	nReaders, err := at.readers(groupSize)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	sp := tr.Start("series_bcast")
	defer sp.End()
	rows, cols, err := agreeSeries(world, series, world.Rank()%groupSize < nReaders)
	if err != nil {
		return nil, 0, err
	}
	if world.Rank() != 0 {
		series = mat.NewDense(rows, cols)
	}
	world.Bcast(0, series.Data)
	return series, time.Since(start), nil
}

// varWindow resolves the design-row count m of an order-c.Order fit to an
// nTotal-sample series and its block-bootstrap length (⌈√m⌉ by default),
// and rejects a block longer than the design, or an anchored fit whose
// window could cover no whole block.
func varWindow(nTotal int, c *VARConfig) (m, blockLen int, err error) {
	if nTotal <= c.Order+4 {
		return 0, 0, fmt.Errorf("uoi: series of %d samples too short for order %d", nTotal, c.Order)
	}
	m, blockLen = nTotal-c.Order, c.BlockLen
	if blockLen <= 0 {
		blockLen = int(math.Ceil(math.Sqrt(float64(m))))
	}
	if blockLen > m {
		return 0, 0, fmt.Errorf("uoi: block length %d exceeds the %d design rows", blockLen, m)
	}
	if c.Anchored && m < 2*blockLen-1 {
		// Below 2·BlockLen−1 rows some anchors leave no whole grid block
		// inside the window (resample.AnchoredBlockBootstrap).
		return 0, 0, fmt.Errorf("uoi: anchored fit needs at least %d design rows for block length %d, has %d", 2*blockLen-1, blockLen, m)
	}
	return m, blockLen, nil
}

// vec is the LassoConfig of c's vectorised problem: UoI_VAR is UoI_LASSO on
// (I ⊗ X), one equation per channel.
func (c *VARConfig) vec() *LassoConfig {
	return &LassoConfig{
		B1: c.B1, B2: c.B2, Lambdas: c.Lambdas, Q: c.Q, LambdaRatio: c.LambdaRatio, Seed: c.Seed,
		TrainFrac: c.TrainFrac, SupportTol: c.SupportTol, SelectionFrac: c.SelectionFrac,
		MedianUnion: c.MedianUnion, L2: c.L2, KernelWorkers: c.KernelWorkers, Trace: c.Trace, ADMM: c.ADMM,
	}
}

// newVARProblem binds UoI_VAR (Algorithm 2) to an N×p series: the
// replicated problem over the full lagged design, built once, with the p
// channels as targets. A selection bootstrap sums the design rows its block
// bootstrap draws, in draw order with repeats; an estimation bootstrap
// splits the design rows into blocks. c is already defaulted.
func newVARProblem(series *mat.Dense, c *VARConfig, streams int) (*problem, error) {
	m, blockLen, err := varWindow(series.Rows, c)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	sp := c.Trace.Start("kron_assembly")
	full := varsim.NewDesign(series, c.Order, !c.NoIntercept)
	sp.End()
	kron := time.Since(t0)
	vc := c.vec()
	pb := newProblem(vc, series.Cols, full.X.Cols, streams)
	pb.kron = kron
	if len(c.WarmBeta) == pb.p {
		pb.seed = c.WarmBeta
	}
	root := resample.NewRNG(c.Seed)
	pb.replicated(vc, full.X, full.Y,
		func(k int) mat.Sample { return mat.Sample{Rows: varSelRows(root, k, m, blockLen, c)} },
		func(k int) ([]int, []int) {
			return resample.BlockTrainEvalSplit(root.Derive(1_000_000+uint64(k)), m, blockLen, c.TrainFrac)
		})
	pb.meta = func() checkpoint.Meta {
		return checkpoint.Meta{
			Kind: checkpoint.KindVAR, Seed: c.Seed, B1: c.B1, B2: c.B2,
			P: pb.p, Q: len(pb.lambdas), Order: c.Order, Intercept: !c.NoIntercept,
			Fingerprint: varFingerprint(series, blockLen, c),
		}
	}
	return pb, nil
}
