package stream

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"uoivar/internal/mat"
	"uoivar/internal/model"
	"uoivar/internal/mpi"
	"uoivar/internal/resample"
	"uoivar/internal/serve"
	"uoivar/internal/telemetry"
	"uoivar/internal/trace"
	"uoivar/internal/uoi"
	"uoivar/internal/varsim"
)

// seedModel fits an initial VAR on the first rows of a long simulated series
// and registers it, returning the registry, the full series, and the fit
// config — the starting state of a streaming deployment.
func seedModel(t *testing.T, name string, nTotal, nSeed int) (*serve.Registry, *mat.Dense, *uoi.VARConfig) {
	t.Helper()
	rng := resample.NewRNG(42)
	m := varsim.GenerateStable(rng, 4, 1, nil)
	long := m.Simulate(rng.Derive(1), nTotal, 60)
	cfg := &uoi.VARConfig{Order: 1, B1: 5, B2: 3, Q: 4, Seed: 7}
	res, err := uoi.VAR(long.SubRows(0, nSeed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry()
	if _, err := reg.Set(name, model.FromVAR(res, cfg), ""); err != nil {
		t.Fatal(err)
	}
	return reg, long, cfg
}

func rowsOf(series *mat.Dense, lo, hi int) [][]float64 {
	out := make([][]float64, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, series.Row(i))
	}
	return out
}

// TestWarmRefitsIdenticalToColdFits: after each of several consecutive
// slides, the published artifact of a warm, anchored streaming refit is
// byte for byte the artifact a cold uoi.VAR fit of the refit's recorded
// (window, cfg) produces. WarmBeta, Anchored and Anchor are fit input and
// ride in cfg; nothing else the engine keeps may move a bit.
func TestWarmRefitsIdenticalToColdFits(t *testing.T) {
	reg, long, base := seedModel(t, "net", 400, 200)
	e, err := NewEngine(Config{
		Name: "net", Registry: reg, Base: *base,
		Window: 200, MinRows: 40, Tracer: trace.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The first refit is cold; the slides after it are warm, one of them
	// (16 rows) small enough to keep the anchored block grid.
	spans := [][2]int{{0, 200}, {200, 260}, {260, 276}, {276, 330}, {330, 400}}
	var prev []float64
	for i, span := range spans {
		if _, err := e.Ingest(rowsOf(long, span[0], span[1])); err != nil {
			t.Fatal(err)
		}
		st, err := e.RefitNow()
		if err != nil {
			t.Fatal(err)
		}
		if st.Refits != int64(i+1) || st.Version != i+2 {
			t.Fatalf("refit %d: refits=%d version=%d, want %d serving version %d", i, st.Refits, st.Version, i+1, i+2)
		}
		window, cfg := e.LastFit()
		if window == nil {
			t.Fatal("LastFit returned no window")
		}
		if !reflect.DeepEqual(cfg.WarmBeta, prev) || !cfg.Anchored || cfg.Anchor != int64(span[1]-window.Rows) {
			t.Fatalf("refit %d: warm seed %v of the previous β, anchored %v at %d, want the previous β anchored at %d",
				i, len(cfg.WarmBeta) > 0, cfg.Anchored, cfg.Anchor, span[1]-window.Rows)
		}
		cold := cfg
		cold.Trace = nil
		res, err := uoi.VAR(window, &cold)
		if err != nil {
			t.Fatal(err)
		}
		want, err := model.FromVAR(res, &cold).Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, err := reg.Get("net").Artifact.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("refit %d: the streaming artifact is not bit-identical to the cold fit of its window", i)
		}
		prev = res.Beta
	}
}

// TestEngineWindowSlideAndCadence: background refits fire on the RefitEvery
// cadence, the buffer respects the window cap, and each publish bumps the
// registry version while the entry keeps serving.
func TestEngineWindowSlideAndCadence(t *testing.T) {
	reg, long, base := seedModel(t, "net", 400, 200)
	tr := trace.New()
	e, err := NewEngine(Config{
		Name: "net", Registry: reg, Base: *base,
		Window: 150, MinRows: 60, RefitEvery: 50, Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < 300; lo += 25 {
		if _, err := e.Ingest(rowsOf(long, lo, lo+25)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	st := e.Status()
	if st.Rows != 150 {
		t.Fatalf("window holds %d rows, want the 150-row cap", st.Rows)
	}
	if st.TotalRows != 300 {
		t.Fatalf("total rows = %d, want 300", st.TotalRows)
	}
	if st.Refits < 2 {
		t.Fatalf("only %d background refits fired over 300 rows at cadence 50", st.Refits)
	}
	if st.LastError != "" {
		t.Fatalf("stream degraded: %s", st.LastError)
	}
	entry := reg.Get("net")
	if entry.Version != int(st.Refits)+1 {
		t.Fatalf("registry version %d after %d refits, want %d", entry.Version, st.Refits, st.Refits+1)
	}
	c := tr.Counters()
	if c["stream/refits"] != st.Refits {
		t.Fatalf("stream/refits counter = %d, want %d", c["stream/refits"], st.Refits)
	}
	if c["stream/ingest_rows"] != 300 {
		t.Fatalf("stream/ingest_rows counter = %d, want 300", c["stream/ingest_rows"])
	}
	// The served predictor must be usable after the swaps.
	if entry.Pred == nil {
		t.Fatal("published entry has no predictor")
	}
}

// TestEngineCellReuseAcrossSlide: after a slide, the warm refit's ADMM
// iterations fall below those of a cold fit (WarmBeta nil) of the same
// window and anchored config.
func TestEngineCellReuseAcrossSlide(t *testing.T) {
	reg, long, base := seedModel(t, "net", 400, 200)
	e, err := NewEngine(Config{
		Name: "net", Registry: reg, Base: *base,
		Window: 200, MinRows: 40, Tracer: trace.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, span := range [][2]int{{0, 200}, {200, 220}} {
		if _, err := e.Ingest(rowsOf(long, span[0], span[1])); err != nil {
			t.Fatal(err)
		}
		if _, err := e.RefitNow(); err != nil {
			t.Fatal(err)
		}
	}
	warmIters := e.Status().LastRefitIters
	window, cfg := e.LastFit()
	cfg.WarmBeta, cfg.Trace = nil, nil
	cold, err := uoi.VAR(window, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warmIters >= cold.Diag.ADMMIters {
		t.Fatalf("warm second refit used %d ADMM iterations, cold used %d — warm start saved nothing",
			warmIters, cold.Diag.ADMMIters)
	}
	t.Logf("second-refit ADMM iterations: cold=%d warm=%d", cold.Diag.ADMMIters, warmIters)
}

// TestEngineArtifactPathPersists: with ArtifactPath set, each refit saves an
// artifact whose bytes match the registry entry, so /v1/reload stays
// coherent with what serves.
func TestEngineArtifactPathPersists(t *testing.T) {
	reg, long, base := seedModel(t, "net", 300, 150)
	path := filepath.Join(t.TempDir(), "net.uoim")
	e, err := NewEngine(Config{
		Name: "net", Registry: reg, Base: *base,
		Window: 150, MinRows: 40, ArtifactPath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest(rowsOf(long, 0, 150)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RefitNow(); err != nil {
		t.Fatal(err)
	}
	onDisk, err := model.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	diskBytes, err := onDisk.Encode()
	if err != nil {
		t.Fatal(err)
	}
	servedBytes, err := reg.Get("net").Artifact.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(diskBytes, servedBytes) {
		t.Fatal("saved artifact differs from the served one")
	}
	if got := reg.Get("net").Path; got != path {
		t.Fatalf("entry path = %q, want %q", got, path)
	}
}

// TestBufferValidation: width and non-finite values are rejected before any
// row is buffered, and eviction keeps the newest rows.
func TestBufferValidation(t *testing.T) {
	b := NewBuffer(2, 3)
	if err := b.Append([][]float64{{1, 2, 3}}); err == nil {
		t.Fatal("wrong-width row accepted")
	}
	if err := b.Append([][]float64{{1, math.NaN()}}); err == nil {
		t.Fatal("NaN row accepted")
	}
	if err := b.Append([][]float64{{1, math.Inf(1)}}); err == nil {
		t.Fatal("Inf row accepted")
	}
	if b.Len() != 0 || b.Total() != 0 {
		t.Fatalf("rejected appends mutated the buffer: len=%d total=%d", b.Len(), b.Total())
	}
	for i := 0; i < 5; i++ {
		if err := b.Append([][]float64{{float64(i), 0}}); err != nil {
			t.Fatal(err)
		}
	}
	if b.Len() != 3 || b.Total() != 5 {
		t.Fatalf("len=%d total=%d, want 3/5", b.Len(), b.Total())
	}
	snap := b.Snapshot()
	want := []float64{2, 3, 4}
	for i, w := range want {
		if snap.Row(i)[0] != w {
			t.Fatalf("snapshot row %d starts with %g, want %g (oldest-first, newest kept)", i, snap.Row(i)[0], w)
		}
	}
}

func TestEffectiveWindow(t *testing.T) {
	if w := EffectiveWindow(0, 0); w != 0 {
		t.Fatalf("no forgetting should yield 0, got %d", w)
	}
	if w := EffectiveWindow(0.99, 0.01); w != 459 {
		t.Fatalf("EffectiveWindow(0.99, 0.01) = %d, want 459", w)
	}
	// Default floor is 0.01.
	if EffectiveWindow(0.95, 0) != EffectiveWindow(0.95, 0.01) {
		t.Fatal("zero floor should default to 0.01")
	}
}

// TestManagerRoutesAndDegrades: the manager lazily creates engines from
// artifact metadata, routes ingest/status by model name, 404s unknown
// models, skips non-VAR artifacts, and surfaces failing streams.
func TestManagerRoutes(t *testing.T) {
	reg, long, base := seedModel(t, "net", 300, 150)
	m := NewManager(reg, Options{Window: 150, MinRows: 40})
	if _, err := m.Ingest("nope", rowsOf(long, 0, 1)); err == nil {
		t.Fatal("unknown model accepted")
	} else if got := err.Error(); got == "" {
		t.Fatal("empty error")
	}
	if _, ok := m.Status("nope"); ok {
		t.Fatal("unknown model has status")
	}
	st, err := m.Ingest("net", rowsOf(long, 0, 150))
	if err != nil {
		t.Fatal(err)
	}
	if st.Model != "net" || st.Rows != 150 {
		t.Fatalf("status = %+v, want model net with 150 rows", st)
	}
	all := m.StatusAll()
	if len(all) != 1 || all[0].Model != "net" {
		t.Fatalf("StatusAll = %+v, want one row for net", all)
	}
	if d := m.Degraded(); len(d) != 0 {
		t.Fatalf("healthy manager reports degraded: %v", d)
	}
	// The lazily-built engine reconstructed the fit recipe from metadata:
	// a manual refit must reproduce the same model a direct fit would.
	e, ok := m.Engine("net")
	if !ok {
		t.Fatal("no engine after ingest")
	}
	if _, err := e.RefitNow(); err != nil {
		t.Fatal(err)
	}
	window, _ := e.LastFit()
	// The engine anchors selection bootstraps at the window's stream
	// offset (0 here — nothing evicted yet), so the direct recipe must too.
	direct, err := uoi.VAR(window, &uoi.VARConfig{
		Order: base.Order, B1: base.B1, B2: base.B2, Q: base.Q, Seed: base.Seed,
		Anchored: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := reg.Get("net")
	if len(got.Artifact.A) != len(direct.A) {
		t.Fatal("lag order mismatch")
	}
	for j := range direct.A {
		if !reflect.DeepEqual(got.Artifact.A[j].Data, direct.A[j].Data) {
			t.Fatal("manager-reconstructed config does not reproduce the direct fit")
		}
	}
}

// TestManagerRefitting: Refitting is true as soon as a cadence-crossing
// Ingest returns and false once Quiesce returns; the count is the
// manager's own, so a second manager stays idle throughout.
func TestManagerRefitting(t *testing.T) {
	reg, long, _ := seedModel(t, "net", 300, 150)
	m := NewManager(reg, Options{Window: 150, MinRows: 40, RefitEvery: 50})
	other := NewManager(reg, Options{Window: 150, MinRows: 40, RefitEvery: 50})
	if m.Refitting() {
		t.Fatal("fresh manager reports a refit")
	}
	if _, err := m.Ingest("net", rowsOf(long, 0, 40)); err != nil {
		t.Fatal(err)
	}
	if m.Refitting() {
		t.Fatal("refit reported before the cadence was crossed")
	}
	if _, err := m.Ingest("net", rowsOf(long, 40, 50)); err != nil {
		t.Fatal(err)
	}
	if !m.Refitting() {
		t.Fatal("no refit reported right after a cadence-crossing ingest")
	}
	if other.Refitting() {
		t.Fatal("a second manager sees the first one's refit")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	if m.Refitting() {
		t.Fatal("refit still reported after Quiesce returned")
	}
	if st, _ := m.Status("net"); st.Refits != 1 || st.LastError != "" {
		t.Fatalf("status after quiesce = %+v, want one healthy refit", st)
	}
}

// RefitNow refits synchronously on the current window and publishes the
// result, regardless of cadence.
func (e *Engine) RefitNow() (serve.StreamStatus, error) {
	err := e.refit()
	return e.Status(), err
}

// LastFit returns the window snapshot and exact fit configuration of the
// last completed refit (nil before any) — the inputs a cold uoi.VAR must be
// given to reproduce the published artifact bit for bit.
func (e *Engine) LastFit() (*mat.Dense, uoi.VARConfig) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastSeries, e.lastCfg
}

// Engine returns the named model's engine if one has been created.
func (m *Manager) Engine(name string) (*Engine, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.engines[name]
	return e, ok
}

// TestTracedFitsStayBelowSeriesCap: a tracer's series are named by program
// constants, never by request data, so one tracer through a 2×2 grid
// UoI_VAR fit, a 4-rank consensus-ADMM UoI_LASSO fit and a streaming
// engine's refits mints a few dozen series per family and never the
// registry's overflow series.
func TestTracedFitsStayBelowSeriesCap(t *testing.T) {
	tr := trace.New()
	reg, long, base := seedModel(t, "net", 300, 200)
	if err := mpi.Run(4, func(c *mpi.Comm) error {
		grid := *base
		grid.Trace = tr
		grid.Placement = &uoi.Placement{Comm: c, Shape: uoi.GridShape{PB: 2, PL: 2}}
		if _, err := uoi.VAR(long.SubRows(0, 200), &grid); err != nil {
			return err
		}
		lo, hi := c.Rank()*50, (c.Rank()+1)*50
		y := make([]float64, hi-lo)
		for i := range y {
			y[i] = long.Row(lo + i + 1)[0]
		}
		_, err := uoi.Lasso(long.SubRows(lo, hi), y, &uoi.LassoConfig{B1: 3, B2: 2, Q: 4, Seed: 5, Trace: tr,
			Placement: &uoi.Placement{Comm: c, Partitioned: true, Assembly: uoi.ConsensusADMM}})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Config{Name: "net", Registry: reg, Base: *base, Window: 200, MinRows: 40, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	for _, span := range [][2]int{{0, 200}, {200, 260}} {
		if _, err := e.Ingest(rowsOf(long, span[0], span[1])); err != nil {
			t.Fatal(err)
		}
		if _, err := e.RefitNow(); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Counter("stream/refits") != 2 || tr.Counter("admm/factorizations") == 0 {
		t.Fatalf("the fits left no trace: %v", tr.Counters())
	}

	exp, err := telemetry.ParseExposition(strings.NewReader(tr.Registry().Expose()))
	if err != nil {
		t.Fatal(err)
	}
	for name, fam := range exp.Families {
		series := map[string]bool{}
		for _, s := range fam.Samples {
			key := s.Labels["name"] + s.Labels["phase"]
			if key == telemetry.OverflowLabel {
				t.Fatalf("%s minted the overflow series", name)
			}
			series[key] = true
		}
		if len(series) > telemetry.MaxSeriesPerFamily/8 {
			t.Errorf("%s holds %d series, want a few dozen", name, len(series))
		}
		t.Logf("%s: %d series", name, len(series))
	}
}
