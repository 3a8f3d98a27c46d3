package stream

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"uoivar/internal/mat"
	"uoivar/internal/model"
	"uoivar/internal/serve"
	"uoivar/internal/telemetry"
	"uoivar/internal/trace"
	"uoivar/internal/uoi"
)

// ingestRateAlpha is the EWMA weight for the observed ingest rate (rows per
// millisecond) that backs StreamStatus.NextRefitInMs.
const ingestRateAlpha = 1.0 / 8

// ErrNotReady reports a refit attempt on a window still below the minimum
// row count; the currently-published model keeps serving.
var ErrNotReady = errors.New("stream: window below minimum rows")

// Config configures one model's streaming refit engine.
type Config struct {
	// Name is the registry name the engine ingests for and republishes.
	Name string
	// Registry receives each refreshed model via its hot-swap path.
	Registry *serve.Registry
	// Base is the fit configuration every refit runs with (order, B1/B2,
	// λ grid, seed, workers). The engine owns the WarmBeta, Trace and
	// Checkpoint fields and overwrites what is set there: each refit
	// warm-starts from the previous refit's β. It also sets Anchored and
	// Anchor whenever the window holds at least 2·BlockLen−1 design rows,
	// anchoring the selection bootstraps at the window's absolute stream
	// offset.
	Base uoi.VARConfig
	// Window caps the sliding window in rows (default 512).
	Window int
	// Forget, when in (0,1), is an exponential forgetting factor: the
	// window is truncated to EffectiveWindow(Forget, WeightFloor) rows so
	// observations whose weight would fall below WeightFloor are dropped.
	Forget float64
	// WeightFloor is Forget's weight cutoff (default 0.01).
	WeightFloor float64
	// RefitEvery triggers a background refit each time this many rows have
	// been ingested since the last refit started (0 = no background refits).
	RefitEvery int
	// MinRows is the minimum buffered rows before any refit (default
	// max(32, 4·(Order+1))).
	MinRows int
	// ArtifactPath, when non-empty, receives each refreshed model as an
	// atomically-written .uoim file before registry publication, keeping
	// the on-disk artifact (and /v1/reload) coherent with what serves.
	ArtifactPath string
	// Tracer, when non-nil, receives stream/* spans and counters.
	Tracer *trace.Tracer
	// Metrics, when non-nil, receives the engine's uoivar_stream_* telemetry
	// families (window fill, refit durations and outcomes, warm-start
	// savings), labeled by model name.
	Metrics *telemetry.Registry
}

// Engine ingests observations for one model and keeps its served artifact
// fresh: appended rows accumulate in a sliding window, every RefitEvery
// rows a single-flight background refit re-runs UoI-VAR on the window —
// warm-started from the previous model — and the result is published
// atomically into the registry (bumping the model's version) while the old
// model serves uninterrupted.
type Engine struct {
	cfg     Config
	p       int
	window  int
	minRows int
	buf     *Buffer
	tr      *trace.Tracer
	metrics *streamMetrics

	// fitMu serializes refits.
	fitMu sync.Mutex
	// refitting, when non-nil, is the owning Manager's count of running
	// refit loops; it moves with running, under mu.
	refitting *atomic.Int64

	mu          sync.Mutex
	prevBeta    []float64
	refits      int64
	running     bool
	pending     bool
	lastErr     error
	lastMs      float64
	lastIters   int
	coldIters   int
	lastSeries  *mat.Dense
	lastCfg     uoi.VARConfig
	fittedTotal int64
	refitStart  time.Time
	lastIngest  time.Time
	rowsPerMs   float64
}

// NewEngine builds an engine for cfg.Name, which must already be registered
// (the current artifact fixes the observation width p and fills any fit
// parameters missing from cfg.Base).
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Registry == nil || cfg.Name == "" {
		return nil, errors.New("stream: Config.Registry and Config.Name are required")
	}
	entry := cfg.Registry.Get(cfg.Name)
	if entry == nil {
		return nil, fmt.Errorf("stream: model %q: %w", cfg.Name, serve.ErrUnknownStream)
	}
	if entry.Artifact.Meta.Kind != model.KindVAR {
		return nil, fmt.Errorf("stream: model %q is %q — streaming refits support var models only",
			cfg.Name, entry.Artifact.Meta.Kind)
	}
	if cfg.Base.Order <= 0 {
		cfg.Base.Order = entry.Artifact.Meta.Order
	}
	window := cfg.Window
	if window <= 0 {
		window = 512
	}
	if ew := EffectiveWindow(cfg.Forget, cfg.WeightFloor); ew > 0 && (cfg.Window <= 0 || ew < window) {
		window = ew
	}
	minRows := cfg.MinRows
	if minRows <= 0 {
		minRows = 4 * (cfg.Base.Order + 1)
		if minRows < 32 {
			minRows = 32
		}
	}
	e := &Engine{
		cfg:     cfg,
		p:       entry.Artifact.Meta.P,
		window:  window,
		minRows: minRows,
		buf:     NewBuffer(entry.Artifact.Meta.P, window),
		tr:      cfg.Tracer,
		metrics: newStreamMetrics(cfg.Metrics),
	}
	return e, nil
}

// Ingest appends rows to the window, schedules a background refit when the
// cadence is due, and returns the post-append status.
func (e *Engine) Ingest(rows [][]float64) (serve.StreamStatus, error) {
	if len(rows) == 0 {
		return e.Status(), errors.New("stream: no rows")
	}
	if err := e.buf.Append(rows); err != nil {
		return e.Status(), err
	}
	e.tr.Add("stream/ingests", 1)
	e.tr.Add("stream/ingest_rows", int64(len(rows)))
	e.metrics.observeWindow(e.cfg.Name, e.buf.Len())
	now := time.Now()
	e.mu.Lock()
	if !e.lastIngest.IsZero() {
		if dt := float64(now.Sub(e.lastIngest).Nanoseconds()) / 1e6; dt > 0 {
			sample := float64(len(rows)) / dt
			if e.rowsPerMs == 0 {
				e.rowsPerMs = sample
			} else {
				e.rowsPerMs += float64(ingestRateAlpha * (sample - e.rowsPerMs))
			}
		}
	}
	e.lastIngest = now
	e.mu.Unlock()
	if e.cfg.RefitEvery > 0 && e.buf.Len() >= e.minRows {
		e.mu.Lock()
		due := e.buf.Total()-e.fittedTotal >= int64(e.cfg.RefitEvery)
		e.mu.Unlock()
		if due {
			e.refitAsync()
		}
	}
	return e.Status(), nil
}

// refitAsync starts the single-flight background refit loop, or marks one
// more round pending if it is already running.
func (e *Engine) refitAsync() {
	e.mu.Lock()
	if e.running {
		e.pending = true
		e.mu.Unlock()
		return
	}
	e.running = true
	e.countRefitting(1)
	e.mu.Unlock()
	go func() {
		for {
			e.refit() //nolint:errcheck // recorded in lastErr / Status
			e.mu.Lock()
			if !e.pending {
				e.running = false
				e.countRefitting(-1)
				e.mu.Unlock()
				return
			}
			e.pending = false
			e.mu.Unlock()
		}
	}()
}

// countRefitting moves the owning Manager's running-loop count with
// e.running. Called with e.mu held, so the count changes under the same
// transitions Quiesce waits on.
func (e *Engine) countRefitting(delta int64) {
	if e.refitting != nil {
		e.refitting.Add(delta)
	}
}

// refit snapshots the window, fits, and publishes. Serialized by fitMu.
func (e *Engine) refit() error {
	e.fitMu.Lock()
	defer e.fitMu.Unlock()
	sp := e.tr.Start("stream/refit")
	defer sp.End()
	e.mu.Lock()
	e.refitStart = time.Now()
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		e.refitStart = time.Time{}
		e.mu.Unlock()
	}()

	spSnap := sp.Child("snapshot")
	snap := e.buf.Snapshot()
	snapTotal := e.buf.Total()
	spSnap.End()
	e.mu.Lock()
	e.fittedTotal = snapTotal
	warm := e.prevBeta
	e.mu.Unlock()
	if snap.Rows < e.minRows {
		return fmt.Errorf("%w: %d < %d", ErrNotReady, snap.Rows, e.minRows)
	}

	// The fit input is exactly (window, cfg): the warm seed and the anchor
	// ride inside cfg, so a cold uoi.VAR with this cfg on this window
	// reproduces the published bits exactly.
	cfg := e.cfg.Base
	cfg.Trace = e.tr
	cfg.Checkpoint = nil
	cfg.WarmBeta = warm
	// Anchor the selection bootstraps at absolute stream coordinates, so a
	// refit after a small slide (one that crosses no block-grid boundary)
	// resamples the same observations. The guard only matters for explicit
	// Base.BlockLen choices too big for the window (uoi.VAR rejects those
	// anchored); the ⌈√m⌉ default always passes.
	if m := snap.Rows - cfg.Order; m >= 2*cfg.BlockLen-1 && m > 0 {
		cfg.Anchored = true
		cfg.Anchor = snapTotal - int64(snap.Rows)
	}
	t0 := time.Now()
	res, err := uoi.VAR(snap, &cfg)
	if err != nil {
		e.tr.Add("stream/refit_errors", 1)
		e.metrics.observeRefitError(e.cfg.Name)
		e.mu.Lock()
		e.lastErr = err
		e.mu.Unlock()
		return err
	}

	art := model.FromVAR(res, &cfg)
	spPub := sp.Child("publish")
	if e.cfg.ArtifactPath != "" {
		if err := model.Save(e.cfg.ArtifactPath, art); err != nil {
			spPub.End()
			e.tr.Add("stream/refit_errors", 1)
			e.metrics.observeRefitError(e.cfg.Name)
			e.mu.Lock()
			e.lastErr = err
			e.mu.Unlock()
			return err
		}
	}
	if _, err := e.cfg.Registry.Set(e.cfg.Name, art, e.cfg.ArtifactPath); err != nil {
		spPub.End()
		e.tr.Add("stream/refit_errors", 1)
		e.metrics.observeRefitError(e.cfg.Name)
		e.mu.Lock()
		e.lastErr = err
		e.mu.Unlock()
		return err
	}
	spPub.End()
	e.tr.Add("stream/refits", 1)

	e.mu.Lock()
	e.prevBeta = res.Beta
	e.refits++
	e.lastErr = nil
	e.lastMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	e.lastIters = res.Diag.ADMMIters
	if e.coldIters == 0 {
		// The first refit has no previous β to warm from; its iteration
		// count is the cold baseline later refits are measured against.
		e.coldIters = res.Diag.ADMMIters
	}
	coldIters := e.coldIters
	e.lastSeries = snap
	e.lastCfg = cfg
	e.mu.Unlock()
	e.metrics.observeRefit(e.cfg.Name, time.Since(t0).Seconds(), res.Diag.ADMMIters, coldIters)
	e.metrics.observeWindow(e.cfg.Name, e.buf.Len())
	return nil
}

// Status reports the engine's current streaming state.
func (e *Engine) Status() serve.StreamStatus {
	e.mu.Lock()
	st := serve.StreamStatus{
		Model:          e.cfg.Name,
		P:              e.p,
		Window:         e.window,
		RefitEvery:     e.cfg.RefitEvery,
		Refits:         e.refits,
		RefitPending:   e.running || e.pending,
		LastRefitMs:    e.lastMs,
		LastRefitIters: e.lastIters,
	}
	if e.lastErr != nil {
		st.LastError = e.lastErr.Error()
	}
	if !e.refitStart.IsZero() {
		st.RefitRunningMs = float64(time.Since(e.refitStart).Nanoseconds()) / 1e6
	}
	if e.cfg.RefitEvery > 0 && e.rowsPerMs > 0 {
		remaining := float64(e.cfg.RefitEvery) - float64(e.buf.Total()-e.fittedTotal)
		if remaining < 0 {
			remaining = 0
		}
		st.NextRefitInMs = remaining / e.rowsPerMs
	}
	e.mu.Unlock()
	st.Rows = e.buf.Len()
	st.TotalRows = e.buf.Total()
	if entry := e.cfg.Registry.Get(e.cfg.Name); entry != nil {
		st.Version = entry.Version
	}
	return st
}

// Refit-health thresholds for Manager.Degraded: a running refit is "slow"
// once it exceeds slowRefitFactor× the last completed refit's wall time
// (floored so brisk models do not flap), and "stuck" once it exceeds the
// stuck multiples or the absolute stuck floor — stuck refits hold fitMu, so
// every later cadence round queues behind them.
const (
	slowRefitFactor   = 3
	slowRefitFloorMs  = 1_000
	stuckRefitFactor  = 10
	stuckRefitFloorMs = 30_000
)

type refitHealth int

const (
	refitOK refitHealth = iota
	refitSlow
	refitStuck
)

// refitState classifies the in-flight refit (if any) as ok, slow, or stuck,
// returning how long it has been running and the last completed wall time.
func (e *Engine) refitState() (state refitHealth, runningMs, lastMs float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.refitStart.IsZero() {
		return refitOK, 0, e.lastMs
	}
	runningMs = float64(time.Since(e.refitStart).Nanoseconds()) / 1e6
	stuckAfter := e.lastMs * stuckRefitFactor
	if stuckAfter < stuckRefitFloorMs {
		stuckAfter = stuckRefitFloorMs
	}
	slowAfter := e.lastMs * slowRefitFactor
	if slowAfter < slowRefitFloorMs {
		slowAfter = slowRefitFloorMs
	}
	switch {
	case runningMs > stuckAfter:
		return refitStuck, runningMs, e.lastMs
	case runningMs > slowAfter:
		return refitSlow, runningMs, e.lastMs
	}
	return refitOK, runningMs, e.lastMs
}

// Err returns the last refit failure (nil while healthy).
func (e *Engine) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastErr
}

// Quiesce blocks until no refit is running or pending (or ctx is done) —
// used by graceful shutdown and tests.
func (e *Engine) Quiesce(ctx context.Context) error {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		e.mu.Lock()
		idle := !e.running && !e.pending
		e.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}
