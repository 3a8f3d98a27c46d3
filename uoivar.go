// Package uoivar is the public API of the UoI_VAR reproduction: scalable
// Union of Intersections inference of sparse regressions (UoI_LASSO) and
// Granger-causal networks (UoI_VAR), after Balasubramanian et al., "Scaling
// of Union of Intersections for Inference of Granger Causal Networks from
// Observational Data" (IPDPS Workshops 2020).
//
// # Fitting models
//
// Fits take plain matrices, and run in this process by default — the
// bootstrap cells of each phase side by side, one per core up to the
// phase's cell count, each cell's kernels on the cores left over, with the
// same bits at any split (LassoConfig.Workers):
//
//	reg := uoivar.MakeRegression(1, 3000, 80, nil)
//	res, err := uoivar.FitLasso(reg.X, reg.Y, &uoivar.LassoConfig{B1: 20, B2: 10})
//
//	model, err := uoivar.FitVAR(series, &uoivar.VARConfig{Order: 1, B1: 40, B2: 5})
//	edges := uoivar.Edges(model.A, 1e-7, false)
//
// A Placement on the config runs the same fit across simulated MPI ranks:
// over the full data on every rank, or over row blocks from the paper's
// randomized data distribution, whose fit is the serial one of the blocks'
// rank-order concatenation (the ranks sum each bootstrap's Gram):
//
//	err := uoivar.Run(8, func(c *uoivar.Comm) error {
//	    block, err := uoivar.RandomizedDistribute(c, "data.hbf", seed)
//	    if err != nil { return err }
//	    x, y := block.XY()
//	    res, err := uoivar.FitLasso(x, y, &uoivar.LassoConfig{B1: 20, B2: 10,
//	        Placement: &uoivar.Placement{Comm: c, Partitioned: true}})
//	    ...
//	})
//
// # Layout
//
// The implementation lives in internal packages (see DESIGN.md for the
// inventory); this package re-exports the surface a downstream user needs:
// model fitting, data distribution, workload generation, evaluation
// metrics, network export, and the calibrated performance model that
// regenerates the paper's at-scale figures.
package uoivar

import (
	"io"

	"uoivar/internal/admm"
	"uoivar/internal/checkpoint"
	"uoivar/internal/datagen"
	"uoivar/internal/distio"
	"uoivar/internal/fault"
	"uoivar/internal/graph"
	"uoivar/internal/hbf"
	"uoivar/internal/mat"
	"uoivar/internal/metrics"
	"uoivar/internal/model"
	"uoivar/internal/mpi"
	"uoivar/internal/perfmodel"
	"uoivar/internal/preprocess"
	"uoivar/internal/resample"
	"uoivar/internal/trace"
	"uoivar/internal/uoi"
	"uoivar/internal/varsim"
)

// ---- Linear algebra ----

// Dense is a row-major dense matrix (element (i,j) at Data[i*Cols+j]).
type Dense = mat.Dense

// NewDense allocates a zeroed r×c matrix.
func NewDense(r, c int) *Dense { return mat.NewDense(r, c) }

// NewDenseData wraps data (not copied) as an r×c matrix.
func NewDenseData(r, c int, data []float64) *Dense { return mat.NewDenseData(r, c, data) }

// ---- UoI model fitting ----

// LassoConfig configures UoI_LASSO (paper Algorithm 1).
type LassoConfig = uoi.LassoConfig

// LassoResult is a fitted UoI_LASSO model.
type LassoResult = uoi.Result

// VARConfig configures UoI_VAR (paper Algorithm 2).
type VARConfig = uoi.VARConfig

// VARResult is a fitted UoI_VAR model with partitioned lag matrices.
type VARResult = uoi.VARResult

// Placement says where a fit runs (Lasso/VARConfig.Placement): the ranks of
// a communicator, a P_B × P_λ shape, and replicated or row-partitioned data.
// nil runs the fit in this process.
type Placement = uoi.Placement

// ErrPlacement reports a placement a fit cannot run at (for example a
// checkpoint with partitioned data); every rank of the fit returns it
// alike.
var ErrPlacement = uoi.ErrPlacement

// VARDistOptions is the Placement of FitVARDistributed.
type VARDistOptions = Placement

// Assembly is how a partitioned fit brings its ranks' rows together
// (Placement.Assembly).
type Assembly = uoi.Assembly

// The Assembly values: the default Shared — UoI_VAR broadcasts the series,
// UoI_LASSO reduces each bootstrap's Gram — and the paper's Kronecker
// assembly of UoI_VAR with per-row or de-duplicated Gets as baselines.
const (
	Shared                = uoi.Shared
	KroneckerGets         = uoi.KroneckerGets
	KroneckerCommAvoiding = uoi.KroneckerCommAvoiding
)

// GridShape is the P_B × P_λ decomposition of the paper's §III: PB
// bootstrap groups times PL λ groups (DESIGN.md §16).
type GridShape = uoi.GridShape

// Grid is the GridShape of FitLassoDistributed.
type Grid = GridShape

// ParseGridShape parses an "RxC" layout spec (e.g. "4x2").
func ParseGridShape(s string) (GridShape, error) { return uoi.ParseGridShape(s) }

// ADMMOptions tunes the inner LASSO-ADMM solver.
type ADMMOptions = admm.Options

// FitLasso runs UoI_LASSO on design x and response y at cfg.Placement:
// in this process when it is nil, its bootstrap cells on up to GOMAXPROCS
// goroutines unless cfg.Workers fixes their count.
func FitLasso(x *Dense, y []float64, cfg *LassoConfig) (*LassoResult, error) {
	return uoi.Lasso(x, y, cfg)
}

// FitLassoDistributed runs UoI_LASSO across the ranks of comm over row
// blocks; each rank passes its local block (see RandomizedDistribute). The
// fit is FitLasso's on the blocks' rank-order concatenation: the ranks sum
// each bootstrap's Gram and Xᵀy and run the serial cells, one bootstrap per
// rank. The fit takes no shape: a grid other than the zero Grid (or 1×1) is
// an ErrPlacement.
func FitLassoDistributed(comm *Comm, xLocal *Dense, yLocal []float64, cfg *LassoConfig, grid Grid) (*LassoResult, error) {
	return uoi.Lasso(xLocal, yLocal, placed(cfg, func(c *LassoConfig) {
		c.Placement = &Placement{Comm: comm, Shape: grid, Partitioned: true}
	}))
}

// FitVAR runs UoI_VAR on an n×p series at cfg.Placement, in this process
// as FitLasso runs when it is nil.
func FitVAR(series *Dense, cfg *VARConfig) (*VARResult, error) {
	return uoi.VAR(series, cfg)
}

// FitVARDistributed runs UoI_VAR across the ranks of comm at opts; series
// must be non-nil on the reader ranks (opts.NReaders per group) and may be
// nil elsewhere. By default rank 0 broadcasts the series once and the
// result is FitVAR's, bit for bit; opts.Assembly KroneckerGets or
// KroneckerCommAvoiding runs the paper's distributed Kronecker/vectorization
// assembly and consensus ADMM instead.
func FitVARDistributed(comm *Comm, series *Dense, cfg *VARConfig, opts *VARDistOptions) (*VARResult, error) {
	return uoi.VAR(series, placed(cfg, func(c *VARConfig) {
		c.Placement = placed(opts, func(at *Placement) { at.Comm, at.Partitioned = comm, true })
	}))
}

// placed returns a copy of v (nil: the zero value) changed by set: each
// rank's config carries its own communicator.
func placed[T any](v *T, set func(*T)) *T {
	var c T
	if v != nil {
		c = *v
	}
	set(&c)
	return &c
}

// LassoCV fits the plain cross-validated LASSO baseline.
func LassoCV(x *Dense, y []float64, folds, q int, seed uint64) (*uoi.BaselineResult, error) {
	return uoi.LassoCV(x, y, folds, q, seed)
}

// ---- Simulated MPI runtime ----

// Comm is one rank's communicator handle.
type Comm = mpi.Comm

// Run launches size ranks, each executing body, and waits for all of them.
func Run(size int, body func(c *Comm) error) error { return mpi.Run(size, body) }

// RunOptions configures fault tolerance and observability for
// RunWithOptions (collective deadlines, fault injection, per-rank event
// recorders).
type RunOptions = mpi.RunOptions

// RunWithOptions is Run with explicit options.
func RunWithOptions(size int, opts RunOptions, body func(c *Comm) error) error {
	return mpi.RunWithOptions(size, opts, body)
}

// CommMatrixFlow is one nonzero cell of the per-pair communication matrix
// (Comm.CommMatrix): all src→dst traffic in one category with both
// endpoints' accounting.
type CommMatrixFlow = mpi.PairFlow

// FaultEvent is one scheduled fault: a crash, delay, straggle, I/O error,
// or bootstrap failure pinned to a rank and (for comm faults) a 0-based
// per-rank communication-op index.
type FaultEvent = fault.Event

// FaultKind labels a FaultEvent (FaultCrash, delays, I/O faults, ...).
type FaultKind = fault.Kind

// FaultCrash kills the target rank at its Op-th communication call — the
// seeded stand-in for a job-queue kill in the chaos and checkpoint tests.
const FaultCrash = fault.Crash

// FaultPlan is a deterministic schedule of fault events for one world,
// passed via RunOptions.Fault.
type FaultPlan = fault.Plan

// NewFaultPlan builds a fault plan for a size-rank world.
func NewFaultPlan(size int, events ...FaultEvent) *FaultPlan {
	return fault.NewPlan(size, events...)
}

// ---- Data distribution and storage ----

// Block is one rank's share of a distributed dataset.
type Block = distio.Block

// RandomizedDistribute spreads an HBF dataset over the ranks with the
// paper's three-tier randomized distribution.
func RandomizedDistribute(comm *Comm, path string, seed uint64) (*Block, error) {
	return distio.RandomizedDistribute(comm, path, seed)
}

// ConventionalDistribute is the Table II single-reader baseline.
func ConventionalDistribute(comm *Comm, path string) (*Block, error) {
	return distio.ConventionalDistribute(comm, path)
}

// HBFCreateOptions configures HBF container layout.
type HBFCreateOptions = hbf.CreateOptions

// WriteHBF stores a row-major matrix as an HBF container.
func WriteHBF(path string, rows, cols int, data []float64, opts HBFCreateOptions) error {
	_, err := hbf.Create(path, rows, cols, data, opts)
	return err
}

// OpenHBF opens an HBF container for (concurrent) reads.
func OpenHBF(path string) (*hbf.File, error) { return hbf.Open(path) }

// ---- VAR substrate ----

// VARModel is a vector autoregressive process (true or estimated).
type VARModel = varsim.Model

// GrangerEdge is a directed Granger-causal edge.
type GrangerEdge = varsim.GrangerEdge

// Edges extracts the directed Granger network from lag matrices.
func Edges(a []*Dense, tol float64, selfLoops bool) []GrangerEdge {
	return varsim.GrangerEdges(a, tol, selfLoops)
}

// EstimatedModel packages fitted lag matrices for forecasting.
func EstimatedModel(a []*Dense, mu []float64) *VARModel {
	return varsim.ModelFromEstimate(a, mu)
}

// SelectOrder chooses the VAR order by information criterion.
func SelectOrder(series *Dense, maxOrder int, criterion varsim.OrderCriterion) (int, []varsim.OrderScore, error) {
	return varsim.SelectOrder(series, maxOrder, criterion)
}

// PairwiseGrangerF runs the classical bivariate Granger F-test baseline.
func PairwiseGrangerF(series *Dense, d int, alpha float64) ([]varsim.FTestResult, error) {
	return varsim.PairwiseGrangerF(series, d, alpha)
}

// ADFTest runs the augmented Dickey–Fuller unit-root test per series.
func ADFTest(series *Dense, lags int, level float64) ([]varsim.DFResult, error) {
	return varsim.ADFTest(series, lags, level)
}

// FirstDifferences returns X_{t+1} − X_t, the paper's §VI stationarity
// preprocessing.
func FirstDifferences(series *Dense) *Dense { return varsim.FirstDifferences(series) }

// ---- Workload generation ----

// Regression is a synthetic sparse linear-model dataset.
type Regression = datagen.Regression

// MakeRegression draws an n×p sparse regression problem.
func MakeRegression(seed uint64, n, p int, opts *datagen.RegressionOptions) *Regression {
	return datagen.MakeRegression(seed, n, p, opts)
}

// MakeFinance generates the S&P-500-like sector-structured market series.
func MakeFinance(seed uint64, p, n int, opts *datagen.FinanceOptions) *datagen.Finance {
	return datagen.MakeFinance(seed, p, n, opts)
}

// MakeNeuro generates the electrode-array-like spike-count series.
func MakeNeuro(seed uint64, p, n int) *datagen.Neuro {
	return datagen.MakeNeuro(seed, p, n)
}

// NewRNG returns the deterministic generator used across the library.
func NewRNG(seed uint64) *resample.RNG { return resample.NewRNG(seed) }

// ---- Evaluation ----

// Selection summarizes support recovery (TP/FP/FN, precision, recall, F1).
type Selection = metrics.Selection

// CompareSupports scores an estimate's support against ground truth.
func CompareSupports(trueBeta, estBeta []float64, tol float64) Selection {
	return metrics.CompareSupports(trueBeta, estBeta, tol)
}

// Graph is a Granger-causal network: degrees, strengths, components,
// top-k edges, summaries, and DOT / edge-list export.
type Graph = graph.CSR

// BuildGraph builds the network over p series from extracted Granger edges.
func BuildGraph(p int, edges []GrangerEdge) (*Graph, error) { return graph.FromGranger(p, edges) }

// ---- Performance model ----

// Machine is the calibrated Cori-KNL-like machine model.
type Machine = perfmodel.Machine

// CoriKNL returns the calibrated machine used to regenerate Figures 2–10.
func CoriKNL() *Machine { return perfmodel.CoriKNL() }

// LassoScale and VARScale describe at-scale runs for the model.
type (
	LassoScale = perfmodel.LassoScale
	VARScale   = perfmodel.VARScale
)

// ---- Model artifacts and inference (DESIGN.md §10) ----

// ModelArtifact is a fitted model snapshot in the versioned .uoim format
// (schema uoivar/model/v1): sparse coefficient matrices with exact float64
// bits, the fit configuration and seed, and selection statistics.
type ModelArtifact = model.Artifact

// ModelMeta is the artifact's JSON metadata section.
type ModelMeta = model.Meta

// Predictor answers forecasts and Granger edge queries from an artifact
// without refitting; it is safe for concurrent use and its batched forecast
// kernel is bit-identical across batch compositions.
type Predictor = model.Predictor

// Model-artifact error taxonomy: damaged files are ErrModelCorrupt, files
// from a future writer (or unknown model kind) are ErrModelSchema.
var (
	// ErrModelCorrupt reports a structurally damaged artifact file.
	ErrModelCorrupt = model.ErrCorrupt
	// ErrModelSchema reports an artifact this reader does not understand.
	ErrModelSchema = model.ErrSchema
)

// VARArtifact snapshots a fitted UoI_VAR model as a savable artifact.
func VARArtifact(res *VARResult, cfg *VARConfig) *ModelArtifact { return model.FromVAR(res, cfg) }

// LassoArtifact snapshots a fitted UoI_LASSO model as a savable artifact.
func LassoArtifact(res *LassoResult, cfg *LassoConfig) *ModelArtifact {
	return model.FromLasso(res, cfg)
}

// SaveModel writes an artifact to path atomically (temp file + rename).
// Conventionally path ends in ".uoim" so uoiserve's directory scan finds it.
func SaveModel(path string, art *ModelArtifact) error { return model.Save(path, art) }

// LoadModel reads and fully validates an artifact.
func LoadModel(path string) (*ModelArtifact, error) { return model.Load(path) }

// NewPredictor derives a concurrent-safe predictor from an artifact.
func NewPredictor(art *ModelArtifact) (*Predictor, error) { return model.NewPredictor(art) }

// ---- Checkpoint/restart (DESIGN.md §11) ----

// CheckpointConfig enables checkpointed execution of a UoI fit: completed
// bootstrap cells are durable in a versioned on-disk file, and a crashed
// fit resumes bit-identically — including on a different rank count. Set it
// on LassoConfig/VARConfig.Checkpoint.
type CheckpointConfig = uoi.CheckpointConfig

// Checkpoint error taxonomy: damaged files are ErrCheckpointCorrupt, files
// from a future writer are ErrCheckpointSchema, and a valid checkpoint
// belonging to a different fit (other data, seed, λ grid, or configuration)
// is ErrCheckpointMismatch.
var (
	// ErrCheckpointCorrupt reports a structurally damaged checkpoint file.
	ErrCheckpointCorrupt = checkpoint.ErrCorrupt
	// ErrCheckpointSchema reports a checkpoint this reader does not understand.
	ErrCheckpointSchema = checkpoint.ErrSchema
	// ErrCheckpointMismatch reports a checkpoint from a different fit.
	ErrCheckpointMismatch = checkpoint.ErrMismatch
)

// ---- Performance observability (DESIGN.md §8) ----

// Tracer aggregates per-phase wall time and solver counters for a fit. Set
// it on LassoConfig/VARConfig.Trace (one tracer per rank for distributed
// fits); a nil *Tracer is the canonical disabled tracer with near-zero
// overhead.
type Tracer = trace.Tracer

// NewTracer returns an enabled tracer.
func NewTracer() *Tracer { return trace.New() }

// PerfReport is the serialized phase/communication breakdown artifact
// (schema uoivar/perf-report/v2, the only one the parser accepts), one RankPerf
// entry per rank.
type PerfReport = trace.PerfReport

// RankPerf is one rank's phase timings, counters, compute-vs-comm split,
// and (v2) per-peer traffic rows.
type RankPerf = trace.RankPerf

// CollectRankPerf joins a rank's tracer with its communication meters into
// a finalized RankPerf. Call once per fit, on a fresh world, after the fit
// returns.
func CollectRankPerf(comm *Comm, tr *Tracer) RankPerf { return uoi.RankPerf(comm, tr) }

// NewPerfReport assembles the per-rank entries into the final artifact.
func NewPerfReport(name string, wallSeconds float64, ranks []RankPerf) *PerfReport {
	return trace.NewPerfReport(name, wallSeconds, ranks)
}

// ParsePerfReport decodes and schema-checks a serialized PerfReport.
func ParsePerfReport(data []byte) (*PerfReport, error) { return trace.ParsePerfReport(data) }

// ---- Event-timeline tracing (DESIGN.md §9) ----

// EventRecorder is a bounded per-rank event timeline: phase span begin/end,
// every communication call (peer, tag, bytes, wait-vs-transfer split), and
// injected-fault instants, on a fixed-capacity ring. A nil *EventRecorder
// is the canonical disabled recorder.
type EventRecorder = trace.Recorder

// NewEventRecorder returns a recorder for one rank (capacity ≤ 0 selects
// the default).
func NewEventRecorder(rank, capacity int) *EventRecorder {
	return trace.NewRecorder(rank, capacity)
}

// NewEventRecorderSet returns one recorder per rank sharing a common time
// epoch, ready for RunOptions.Recorders (attach each to its rank's tracer
// with Tracer.WithRecorder so phase spans land on the timeline too).
func NewEventRecorderSet(ranks, capacity int) []*EventRecorder {
	return trace.NewRecorderSet(ranks, capacity)
}

// WriteChromeTrace serializes the recorders as Chrome trace-event JSON
// (open in https://ui.perfetto.dev): one row per rank, flow arrows linking
// matched sends and receives, instants for injected faults.
func WriteChromeTrace(w io.Writer, name string, recs []*EventRecorder) error {
	return trace.WriteChromeTrace(w, name, recs)
}

// ParseChromeTrace decodes and validates an exported Chrome trace.
func ParseChromeTrace(data []byte) (*trace.ChromeTrace, error) {
	return trace.ParseChromeTrace(data)
}

// TimelineSummary is the merged-timeline analysis: per-phase load imbalance
// across ranks, barrier-wait attribution, and the critical path through the
// pipeline's phase DAG.
type TimelineSummary = trace.TimelineSummary

// AnalyzeTimeline merges per-rank event streams into a TimelineSummary.
func AnalyzeTimeline(recs []*EventRecorder) *TimelineSummary {
	return trace.AnalyzeTimeline(recs)
}

// ---- Solver extensions ----

// ElasticNet solves min ½‖Xβ−y‖² + λ₁‖β‖₁ + ½λ₂‖β‖² with ADMM.
func ElasticNet(x *Dense, y []float64, lambda1, lambda2 float64, opts *ADMMOptions) (*admm.Result, error) {
	return admm.ElasticNet(x, y, lambda1, lambda2, opts)
}

// ---- Preprocessing ----

// Scaler standardizes designs and maps coefficients back to raw units.
type Scaler = preprocess.Scaler

// FitScaler computes feature means/scales and the response mean.
func FitScaler(x *Dense, y []float64) *Scaler { return preprocess.FitXY(x, y) }
