package stream

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"uoivar/internal/model"
	"uoivar/internal/serve"
	"uoivar/internal/telemetry"
	"uoivar/internal/trace"
	"uoivar/internal/uoi"
)

// Options configures a Manager's per-model engines (see Config for the
// field semantics; these apply uniformly to every streamed model).
type Options struct {
	// Window caps each model's sliding window in rows (default 512).
	Window int
	// Forget is an optional exponential forgetting factor γ ∈ (0,1).
	Forget float64
	// WeightFloor is Forget's weight cutoff (default 0.01).
	WeightFloor float64
	// RefitEvery is the background refit cadence in ingested rows
	// (0 = manual refits only).
	RefitEvery int
	// MinRows overrides the minimum rows required before a refit.
	MinRows int
	// Workers is each refit's VARConfig.Workers: how many bootstrap cells
	// run side by side (0 = one per core, up to a phase's cells; 1 = one
	// at a time).
	Workers int
	// Tracer, when non-nil, receives stream/* spans and counters.
	Tracer *trace.Tracer
	// Metrics, when non-nil, receives every engine's uoivar_stream_*
	// telemetry families (see stream.Config.Metrics).
	Metrics *telemetry.Registry
}

// Manager implements serve.Streamer over a registry: it lazily creates one
// Engine per streamed VAR model, reconstructing each model's fit
// configuration from its artifact metadata so refits reproduce the original
// fit recipe on fresh windows.
type Manager struct {
	reg  *serve.Registry
	opts Options

	mu      sync.Mutex
	engines map[string]*Engine
	// refitting counts the engines whose background refit loop is running
	// (see Refitting).
	refitting atomic.Int64
}

// NewManager returns a manager serving streams for reg's VAR models.
func NewManager(reg *serve.Registry, opts Options) *Manager {
	return &Manager{reg: reg, opts: opts, engines: make(map[string]*Engine)}
}

// engineFor returns the named model's engine, creating it on first use.
// Creation is lazy so managers can be constructed before the registry is
// populated (fleet replicas warm their registries after wiring the server).
func (m *Manager) engineFor(name string) (*Engine, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.engines[name]; e != nil {
		return e, nil
	}
	entry := m.reg.Get(name)
	if entry == nil {
		return nil, fmt.Errorf("stream: model %q: %w", name, serve.ErrUnknownStream)
	}
	e, err := NewEngine(Config{
		Name:         name,
		Registry:     m.reg,
		Base:         baseConfig(entry.Artifact.Meta, m.opts.Workers),
		Window:       m.opts.Window,
		Forget:       m.opts.Forget,
		WeightFloor:  m.opts.WeightFloor,
		RefitEvery:   m.opts.RefitEvery,
		MinRows:      m.opts.MinRows,
		ArtifactPath: entry.Path,
		Tracer:       m.opts.Tracer,
		Metrics:      m.opts.Metrics,
	})
	if err != nil {
		return nil, err
	}
	e.refitting = &m.refitting
	m.engines[name] = e
	return e, nil
}

// baseConfig reconstructs the fit configuration recorded in an artifact's
// metadata, so streaming refits rerun the recipe that produced the model.
func baseConfig(meta model.Meta, workers int) uoi.VARConfig {
	c := meta.Config
	return uoi.VARConfig{
		Order:       meta.Order,
		NoIntercept: !meta.Intercept,
		Seed:        meta.Seed,
		B1:          c.B1, B2: c.B2, Q: c.Q,
		LambdaRatio: c.LambdaRatio, TrainFrac: c.TrainFrac,
		SupportTol: c.SupportTol, SelectionFrac: c.SelectionFrac,
		L2: c.L2, MedianUnion: c.MedianUnion,
		Workers: workers,
	}
}

// Ingest implements serve.Streamer.
func (m *Manager) Ingest(name string, rows [][]float64) (serve.StreamStatus, error) {
	e, err := m.engineFor(name)
	if err != nil {
		return serve.StreamStatus{Model: name}, err
	}
	return e.Ingest(rows)
}

// Status implements serve.Streamer.
func (m *Manager) Status(name string) (serve.StreamStatus, bool) {
	e, err := m.engineFor(name)
	if err != nil {
		return serve.StreamStatus{}, false
	}
	return e.Status(), true
}

// StatusAll implements serve.Streamer: one row per streamable (VAR) model,
// sorted by name.
func (m *Manager) StatusAll() []serve.StreamStatus {
	var out []serve.StreamStatus
	for _, entry := range m.reg.List() {
		if entry.Artifact.Meta.Kind != model.KindVAR {
			continue
		}
		e, err := m.engineFor(entry.Name)
		if err != nil {
			continue
		}
		out = append(out, e.Status())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Model < out[j].Model })
	return out
}

// Refitting implements serve.Streamer: true while any engine's background
// refit loop runs — from the cadence-crossing Ingest that starts it until
// the loop exits, which is the transition Quiesce waits for. One atomic
// load, so the batcher can ask once per batch.
func (m *Manager) Refitting() bool { return m.refitting.Load() > 0 }

// Degraded lists unhealthy streams for monitor readiness (empty while every
// stream is healthy). A stream is degraded when its last refit failed, or
// when its in-flight refit is slow (running well past the last completed
// wall time) or stuck (so far past it that the fit has likely wedged —
// stuck refits hold the engine's fit lock, so cadence rounds pile up
// behind them).
func (m *Manager) Degraded() []string {
	m.mu.Lock()
	engines := make([]*Engine, 0, len(m.engines))
	for _, e := range m.engines {
		engines = append(engines, e)
	}
	m.mu.Unlock()
	var out []string
	for _, e := range engines {
		if err := e.Err(); err != nil {
			out = append(out, fmt.Sprintf("stream %s: refit failing: %v", e.cfg.Name, err))
		}
		switch state, runningMs, lastMs := e.refitState(); state {
		case refitStuck:
			out = append(out, fmt.Sprintf("stream %s: refit stuck: running %.0fms (last completed in %.0fms)",
				e.cfg.Name, runningMs, lastMs))
		case refitSlow:
			out = append(out, fmt.Sprintf("stream %s: refit slow: running %.0fms (last completed in %.0fms)",
				e.cfg.Name, runningMs, lastMs))
		}
	}
	sort.Strings(out)
	return out
}

// Quiesce blocks until every engine is idle (or ctx is done).
func (m *Manager) Quiesce(ctx context.Context) error {
	m.mu.Lock()
	engines := make([]*Engine, 0, len(m.engines))
	for _, e := range m.engines {
		engines = append(engines, e)
	}
	m.mu.Unlock()
	for _, e := range engines {
		if err := e.Quiesce(ctx); err != nil {
			return err
		}
	}
	return nil
}
