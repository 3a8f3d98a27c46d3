package uoi

import (
	"fmt"
	"math"
	"sort"
	"time"

	"uoivar/internal/admm"
	"uoivar/internal/mat"
	"uoivar/internal/mpi"
	"uoivar/internal/resample"
	"uoivar/internal/trace"
	"uoivar/internal/varsim"
)

// This file is the whole-network all-pairs edge-inference driver: the
// workload of the whole-brain follow-on of the paper, where the causal
// edges into every one of ≥1024 channels are inferred by fitting each
// target channel's equation separately. Unlike the joint vec(B) problem
// of UoI_VAR (var.go), the per-target formulation is embarrassingly
// parallel over targets: each target's fit is a pure function of
// (series, config, target index), so the rank-sharded driver (AllPairs
// at a Placement) partitions targets across ranks and merges
// per-target coefficient rows by pure concatenation — no floating-point
// reductions — making the sharded result bit-identical to the serial
// loop at any rank count.
//
// Per target the inference is a screened mini-UoI: correlation screening
// keeps the Screen strongest lagged predictors (sure-independence
// screening, the standard trick that makes p ≥ 1024 tractable), a
// moving-block-bootstrap × λ-path selection stage intersects supports
// across NB bootstraps, and an OLS + BIC estimation stage picks the
// final support from the candidate family.

// AllPairsConfig configures the all-pairs driver. The zero value of
// every field selects a sane default.
type AllPairsConfig struct {
	// Order is the autoregressive order d (default 1).
	Order int
	// NB is the number of selection bootstraps per target (default 5).
	NB int
	// Q is the per-target λ-grid size (default 8) and LambdaRatio the
	// grid's λ_min/λ_max (default 1e-2).
	Q           int
	LambdaRatio float64 // λ_min/λ_max (see Q)
	// Screen caps the number of candidate predictors kept per target
	// after correlation screening (default 64; capped at d·p).
	Screen int
	// SelectionFrac is the soft-intersection threshold: a predictor must
	// survive at least ⌈SelectionFrac·NB⌉ bootstraps (default 1, the
	// hard intersection).
	SelectionFrac float64
	// BlockLen is the moving-block bootstrap block length (default ⌈√m⌉).
	BlockLen int
	// SupportTol is the |coefficient| threshold for support membership
	// (default 1e-7).
	SupportTol float64
	// Seed is the root RNG seed; per-(target, bootstrap) streams derive
	// from it, so results are independent of execution order.
	Seed uint64
	// Workers runs a process's targets on that many goroutines. Results
	// are identical at any worker count: each target's fit is
	// self-contained. It resolves as LassoConfig.KernelWorkers does: 0 is
	// GOMAXPROCS divided by the Placement's ranks (1 in process), negative
	// the full machine, each at least 1.
	Workers int
	// Trace, when non-nil, records phase spans (allpairs/fit,
	// allpairs/allgather) and solver counters.
	Trace *trace.Tracer
	// Placement, when non-nil, shards the targets over the ranks of its
	// communicator; it takes nothing else (see Placement).
	Placement *Placement
	// ADMM carries the solver options for the selection λ sweeps.
	ADMM admm.Options
}

func (c *AllPairsConfig) defaults() AllPairsConfig {
	var o AllPairsConfig
	if c != nil {
		o = *c
	}
	positive(&o.Order, 1)
	positive(&o.NB, 5)
	positive(&o.Q, 8)
	fraction(&o.LambdaRatio, 1e-2)
	positive(&o.Screen, 64)
	fraction(&o.SelectionFrac, 1)
	positive(&o.SupportTol, 1e-7)
	ranks := 1
	if o.Placement != nil && o.Placement.Comm != nil {
		ranks = o.Placement.Comm.Size()
	}
	o.Workers = kernelBudget(o.Workers, ranks)
	if o.ADMM.Trace == nil {
		o.ADMM.Trace = o.Trace
	}
	return o
}

// AllPairsResult is the inferred whole-network model: per-target rows of
// the lag coefficient matrices plus intercepts — the same (A, Mu) shape
// var.go produces, so the standard artifact, serving, and graph layers
// consume it unchanged.
type AllPairsResult struct {
	// A holds the lag matrices A_1..A_d (rows = targets, columns =
	// sources); row i is target i's fitted equation.
	A []*mat.Dense
	// Mu is the per-target intercept.
	Mu []float64
	// Edges counts nonzero off-diagonal coefficients across lags — the
	// directed causal edges inferred.
	Edges int
	// Diag carries aggregate phase timings and solver counts. At a
	// Placement it covers only the local rank's targets.
	Diag AllPairsDiag
}

// AllPairsDiag aggregates the driver's per-phase work.
type AllPairsDiag struct {
	// Targets is the number of target channels this result covers.
	Targets int
	// ScreenTime / SelectTime / EstimateTime sum the per-target phase
	// durations across targets (CPU-time-like sums, not wall time when
	// Workers > 1).
	ScreenTime, SelectTime, EstimateTime time.Duration
	// LassoFits and ADMMIters count selection solves and their inner
	// iterations.
	LassoFits, ADMMIters int
}

// VARResult repackages the all-pairs model in the shape model.FromVAR
// expects, so it can be saved as a standard artifact and served.
func (r *AllPairsResult) VARResult() *VARResult {
	return &VARResult{A: r.A, Mu: r.Mu}
}

// targetFit is one target's finished equation: the global design-column
// indices (lag·p + source) with nonzero coefficients, their values, and
// the recovered intercept.
type targetFit struct {
	cols []int
	vals []float64
	mu   float64
	diag AllPairsDiag
}

// allPairs fits targets i with i mod stride == offset (the rank-sharding
// decomposition) into a full-size result whose non-owned rows stay zero;
// AllPairs at a Placement merges the owned rows across ranks.
func allPairs(series *mat.Dense, c *AllPairsConfig, offset, stride int) (*AllPairsResult, error) {
	nTotal, p := series.Rows, series.Cols
	d := c.Order
	if nTotal <= d+4 {
		return nil, fmt.Errorf("uoi: all-pairs series of %d samples too short for order %d", nTotal, d)
	}
	tr := c.Trace
	sp := tr.Start("allpairs/fit")
	defer sp.End()

	// Shared read-only precomputation: the lagged design, centered so the
	// intercept drops out of every subproblem. μ_i is recovered afterward
	// from the centered-fit identity μ_i = ȳ_i − Σ_j β_ij·x̄_j.
	des := varsim.NewDesign(series, d, false)
	m, q := des.X.Rows, des.X.Cols // q = d·p predictors
	blockLen := c.BlockLen
	if blockLen <= 0 {
		blockLen = int(math.Ceil(math.Sqrt(float64(m))))
	}
	screen := c.Screen
	if screen > q {
		screen = q
	}
	xbar, ybar := colMeans(des.X), colMeans(des.Y)
	xc := mat.NewDense(m, q)
	for i := 0; i < m; i++ {
		dst := xc.Row(i)
		for j, v := range des.X.Row(i) {
			dst[j] = v - xbar[j]
		}
	}

	own := make([]int, 0, (p-offset+stride-1)/stride)
	for i := offset; i < p; i += stride {
		own = append(own, i)
	}
	fits := make([]*targetFit, p)
	err := forEachBootstrap(c.Workers, len(own), func(k int) (err error) {
		fits[own[k]], err = fitTarget(xc, des.Y, xbar, ybar, own[k], blockLen, screen, c)
		return err
	})
	if err != nil {
		return nil, err
	}

	res := &AllPairsResult{Mu: make([]float64, p), Diag: AllPairsDiag{Targets: len(own)}}
	res.A = make([]*mat.Dense, d)
	for l := range res.A {
		res.A[l] = mat.NewDense(p, p)
	}
	for _, i := range own {
		fit := fits[i]
		res.Mu[i] = fit.mu
		for k, g := range fit.cols {
			res.A[g/p].Set(i, g%p, fit.vals[k])
		}
		res.Diag.ScreenTime += fit.diag.ScreenTime
		res.Diag.SelectTime += fit.diag.SelectTime
		res.Diag.EstimateTime += fit.diag.EstimateTime
		res.Diag.LassoFits += fit.diag.LassoFits
		res.Diag.ADMMIters += fit.diag.ADMMIters
	}
	res.Edges = edges(res.A)
	tr.Add("allpairs/targets", int64(len(own)))
	tr.Add("allpairs/lasso_fits", int64(res.Diag.LassoFits))
	return res, nil
}

// edges counts the nonzero off-diagonal coefficients of the lag matrices a:
// the directed causal edges they infer.
func edges(a []*mat.Dense) int {
	n := 0
	for _, al := range a {
		for i := 0; i < al.Rows; i++ {
			for k, v := range al.Row(i) {
				if v != 0 && k != i {
					n++
				}
			}
		}
	}
	return n
}

// colMeans returns the column means of a, each summed over the rows in
// order.
func colMeans(a *mat.Dense) []float64 {
	mean := make([]float64, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for j, v := range a.Row(i) {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(a.Rows)
	}
	return mean
}

// fitTarget runs one target channel's screened mini-UoI fit. It is a
// pure function of (xc, y, x̄, ȳ, i, geometry, cfg) with no shared
// mutable state, which is what makes both worker- and rank-parallel
// execution bit-identical to the serial loop.
func fitTarget(xc, y *mat.Dense, xbar, ybar []float64, i, blockLen, screen int, c *AllPairsConfig) (*targetFit, error) {
	m, q := xc.Rows, xc.Cols
	// Centered response.
	yc := y.Col(i, nil)
	for t := range yc {
		yc[t] -= ybar[i]
	}

	// Screening: keep the `screen` columns with the largest |x_jᵀy|
	// (ties broken by column index, so the cut is deterministic).
	t0 := time.Now()
	score := mat.AtVecWorkers(xc, yc, 1)
	idx := make([]int, q)
	for j := range idx {
		idx[j] = j
	}
	sort.Slice(idx, func(a, b int) bool {
		sa, sb := math.Abs(score[idx[a]]), math.Abs(score[idx[b]])
		if sa != sb {
			return sa > sb
		}
		return idx[a] < idx[b]
	})
	cols := make([]int, screen)
	copy(cols, idx[:screen])
	sort.Ints(cols) // canonical column order for the subdesign
	xs := xc.SelectCols(cols)
	diag := AllPairsDiag{ScreenTime: time.Since(t0)}

	// Selection: moving-block bootstraps × λ path, soft-intersected.
	t0 = time.Now()
	lambdas := admm.LogSpaceLambdas(admm.LambdaMax(xs, yc), c.LambdaRatio, c.Q)
	counts := make([]float64, len(lambdas)*screen)
	root := resample.NewRNG(c.Seed).Derive(uint64(i) + 1)
	sel := path{lambdas: lambdas, opts: c.ADMM, tol: c.SupportTol, kw: 1}
	target := column(yc)
	for b := 0; b < c.NB; b++ {
		bi := resample.MovingBlockBootstrap(root.Derive(uint64(b)+1), m, blockLen)
		gram, xty := mat.Stats(xc, target, mat.Sample{Rows: bi, Cols: cols}, 1)
		sup, d, err := sel.cell(gram, xty, 0, len(lambdas), nil, nil)
		if err != nil {
			return nil, fmt.Errorf("uoi: all-pairs target %d bootstrap %d: %w", i, b, err)
		}
		addSupportCounts(counts, sup)
		diag.LassoFits += d.LassoFits
		diag.ADMMIters += d.ADMMIters
	}
	threshold := ceilCount(c.SelectionFrac, c.NB)
	var distinct [][]int
	for _, sup := range dedupeSupports(supportsFromCounts(counts, len(lambdas), screen, float64(threshold))) {
		if len(sup) > 0 {
			distinct = append(distinct, sup)
		}
	}
	diag.SelectTime = time.Since(t0)

	// Estimation: the estimation cell on the full centered data — every row
	// trains and every row scores — with the candidates ranked by BIC (ties
	// keep the earlier — sparser/larger-λ — candidate, since only a strictly
	// lower BIC replaces the best).
	t0 = time.Now()
	rows := make([]int, m)
	for t := range rows {
		rows[t] = t
	}
	supCols, at := supportColumns(distinct, screen)
	gram, xty := mat.Stats(xs, target, mat.Sample{Cols: supCols}, 1)
	fit := &targetFit{mu: ybar[i]}
	var best winner
	fitCandidates(xs, target, gram, xty, at, rows, distinct, 1, func(j int, loss float64, beta []float64) {
		rss := 2 * loss
		if rss <= 0 {
			rss = math.SmallestNonzeroFloat64
		}
		best.offer(float64(float64(m)*math.Log(rss/float64(m)))+float64(float64(len(distinct[j]))*math.Log(float64(m))), beta)
	})
	if best.beta != nil {
		mu := ybar[i]
		for k, v := range best.beta {
			if v == 0 {
				continue
			}
			g := cols[k]
			fit.cols = append(fit.cols, g)
			fit.vals = append(fit.vals, v)
			mu -= float64(v * xbar[g])
		}
		fit.mu = mu
	}
	diag.EstimateTime = time.Since(t0)
	fit.diag = diag
	return fit, nil
}

// AllPairs runs the all-pairs driver over an n×p series: one screened
// mini-UoI fit per target channel. At a nil cfg.Placement the targets run
// on cfg.Workers goroutines. At a placement rank r fits targets i with
// i mod size == r, then every rank Allgathers the per-target coefficient
// rows. The merge is pure concatenation of fixed-size encoded slots — no
// floating-point reductions — so the result is bit-identical at any rank
// count. Collective-safe: every rank returns an error or none do.
func AllPairs(series *mat.Dense, cfg *AllPairsConfig) (*AllPairsResult, error) {
	c := cfg.defaults()
	if c.Placement == nil {
		return allPairs(series, &c, 0, 1)
	}
	if c.Placement.Comm == nil {
		return nil, errNoComm
	}
	if err := c.Placement.check(fitAsk{fit: "AllPairs"}); err != nil {
		return nil, err
	}
	comm := c.Placement.Comm
	nTotal, p := series.Rows, series.Cols
	d := c.Order
	// Collective validation: all ranks agree before any data collective.
	bad := 0.0
	if nTotal <= d+4 {
		bad = 1
	}
	if comm.AllreduceScalar(mpi.OpMax, bad) > 0 {
		return nil, fmt.Errorf("uoi: all-pairs series of %d samples too short for order %d", nTotal, d)
	}
	rank, size := comm.Rank(), comm.Size()
	tr := c.Trace
	sp := tr.Start("allpairs/distributed")
	defer sp.End()

	local, err := allPairs(series, &c, rank, size)
	bad = 0
	if err != nil {
		bad = 1
	}
	if comm.AllreduceScalar(mpi.OpMax, bad) > 0 {
		if err == nil {
			err = fmt.Errorf("uoi: all-pairs fit failed on another rank")
		}
		return nil, err
	}

	// Encode this rank's targets into fixed-size slots and Allgather.
	// Slot s on rank r carries target i = s·size + r as [μ_i, A_1 row i,
	// ..., A_d row i] — 1 + d·p floats. Every rank sends ⌈p/size⌉ slots
	// (trailing slots past p are zero padding), satisfying Allgather's
	// equal-length contract; each slot's bytes pass through untouched.
	slotLen := 1 + d*p
	slots := (p + size - 1) / size
	spX := tr.Start("allpairs/allgather")
	send := make([]float64, slots*slotLen)
	for s := 0; s < slots; s++ {
		i := s*size + rank
		if i >= p {
			break
		}
		at := s * slotLen
		send[at] = local.Mu[i]
		for l := 0; l < d; l++ {
			copy(send[at+1+l*p:at+1+(l+1)*p], local.A[l].Row(i))
		}
	}
	recv := comm.Allgather(send)
	spX.End()

	// local is full-size with only this rank's rows set: fill in the rest.
	res := local
	for r := 0; r < size; r++ {
		for s := 0; s < slots; s++ {
			i := s*size + r
			if i >= p {
				break
			}
			at := (r*slots + s) * slotLen
			res.Mu[i] = recv[at]
			for l := 0; l < d; l++ {
				copy(res.A[l].Row(i), recv[at+1+l*p:at+1+(l+1)*p])
			}
		}
	}
	res.Edges = edges(res.A)
	tr.Add("allpairs/edges", int64(res.Edges))
	return res, nil
}
