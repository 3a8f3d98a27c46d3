package uoi

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"uoivar/internal/mat"
	"uoivar/internal/mpi"
	"uoivar/internal/trace"
)

// TestCeilFracTable is the regression for the threshold off-by-one: the
// float product frac·b can land a hair above the exact integer
// (0.07·100 = 7.000000000000001) and a naive Ceil then overshoots,
// silently tightening every quorum and selection threshold.
func TestCeilFracTable(t *testing.T) {
	cases := []struct {
		frac float64
		b    int
		want int
	}{
		{0.07, 100, 7},   // 7.000000000000001 — the motivating bug
		{0.56, 100, 56},  // 56.00000000000001
		{0.07, 300, 21},  // 21.000000000000004
		{0.29, 100, 29},  // 28.999999999999996 rounds up to 29 exactly
		{0.071, 100, 8},  // genuinely fractional: must still ceil
		{0.5, 8, 4},      // exact binary fraction
		{0.75, 4, 3},     // exact
		{1.0, 8, 8},      // full fraction
		{0.33, 3, 1},     // 0.99 → 1
		{0.9, 10, 9},     // 9.000000000000002
		{0.001, 1000, 1}, // tiny but nonzero
	}
	for _, c := range cases {
		if got := ceilFrac(c.frac, c.b); got != c.want {
			t.Errorf("ceilFrac(%v, %d) = %d, want %d", c.frac, c.b, got, c.want)
		}
	}
}

func TestQuorumCountClamps(t *testing.T) {
	cases := []struct {
		frac float64
		b    int
		want int
	}{
		{0.07, 100, 7},
		{0, 10, 1},    // zero fraction still needs one bootstrap
		{-0.5, 10, 1}, // negative clamps up
		{2.0, 10, 10}, // overfull clamps down
		{1.0, 1, 1},
	}
	for _, c := range cases {
		if got := ceilCount(c.frac, c.b); got != c.want {
			t.Errorf("ceilCount(%v, %d) = %d, want %d", c.frac, c.b, got, c.want)
		}
	}
}

func TestKernelBudget(t *testing.T) {
	if got := kernelBudget(3, 8); got != 3 {
		t.Fatalf("explicit budget: got %d, want 3", got)
	}
	if got := kernelBudget(-1, 8); got != mat.DefaultWorkers() {
		t.Fatalf("negative budget: got %d, want full machine %d", got, mat.DefaultWorkers())
	}
	if got := kernelBudget(0, 1<<20); got != 1 {
		t.Fatalf("derived budget floors at 1, got %d", got)
	}
	if got := kernelBudget(0, 0); got < 1 {
		t.Fatalf("zero streams: got %d", got)
	}
}

// topLevel collects the top-level phase names of a tracer.
func topLevel(tr *trace.Tracer) map[string]float64 {
	out := map[string]float64{}
	for _, p := range tr.Phases() {
		if !containsSlash(p.Name) {
			out[p.Name] = p.Seconds
		}
	}
	return out
}

func containsSlash(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == '/' {
			return true
		}
	}
	return false
}

// TestSerialLassoTraced checks that a traced serial fit records the five
// pipeline phases and the solver counters, and that tracing does not change
// the result.
func TestSerialLassoTraced(t *testing.T) {
	x, y, _ := makeRegression(41, 120, 16, 4, 0.3)
	cfg := func(tr *trace.Tracer) *LassoConfig {
		return &LassoConfig{B1: 6, B2: 3, Q: 6, Seed: 11, Trace: tr}
	}
	plain, err := Lasso(x, y, cfg(nil))
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	traced, err := Lasso(x, y, cfg(tr))
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Beta {
		if plain.Beta[i] != traced.Beta[i] {
			t.Fatalf("tracing changed the fit at coefficient %d", i)
		}
	}
	phases := topLevel(tr)
	for _, name := range []string{"lambda_grid", "selection", "intersection", "estimation", "union"} {
		if _, ok := phases[name]; !ok {
			t.Errorf("top-level phase %q missing (got %v)", name, phases)
		}
	}
	if tr.PhaseSeconds("selection/bootstrap") <= 0 {
		t.Error("selection/bootstrap child span missing")
	}
	if tr.PhaseSeconds("estimation/bootstrap") <= 0 {
		t.Error("estimation/bootstrap child span missing")
	}
	for _, counter := range []string{"admm/solves", "admm/iters", "admm/chol_solves", "admm/factorizations"} {
		if tr.Counter(counter) <= 0 {
			t.Errorf("counter %q not recorded", counter)
		}
	}
	// At Workers 0 each phase runs min(GOMAXPROCS, B) streams at the cores
	// left over: the gauges hold the widest phase's streams (selection, B1
	// 6) and the largest budget (estimation's, B2 3).
	procs := runtime.GOMAXPROCS(0)
	if got, want := tr.Max("uoi/streams"), int64(min(procs, 6)); got != want {
		t.Errorf("uoi/streams gauge %d, want %d", got, want)
	}
	if got, want := tr.Max("mat/kernel_workers"), int64(max(procs/min(procs, 3), 1)); got != want {
		t.Errorf("mat/kernel_workers gauge %d, want %d", got, want)
	}
	// ADMM iterations bound solves from below (every solve iterates at
	// least once).
	if tr.Counter("admm/iters") < tr.Counter("admm/solves") {
		t.Errorf("iters %d < solves %d", tr.Counter("admm/iters"), tr.Counter("admm/solves"))
	}
}

// TestDistributedPerfReport is the acceptance check of the observability
// layer: a 4-rank fit emits per-rank phase timings that partition the
// rank's run — its top-level spans never overlap and every communication
// call on its timeline lies inside one of them, and they sum to no more
// than its wall time — joined with the rank's communication meters into a
// parseable PerfReport.
//
// The partition is checked on the event timeline, not as a share of the
// wall: a 3–5 ms fit's wall also holds off-CPU stalls of the goroutine
// that no span can own, while a collective outside every span is exactly
// the attribution gap a phase breakdown must not have.
func TestDistributedPerfReport(t *testing.T) {
	x, y, _ := makeRegression(43, 240, 24, 5, 0.3)
	rows := make([][]float64, x.Rows)
	for i := range rows {
		rows[i] = x.Row(i)
	}
	const ranks = 4
	xs, ys := shuffledBlocks(17, rows, y, x.Cols, ranks)
	perRank := make([]trace.RankPerf, ranks)
	walls := make([]float64, ranks)
	recs := trace.NewRecorderSet(ranks, 1<<16)
	err := mpi.RunWithOptions(ranks, mpi.RunOptions{Recorders: recs}, func(c *mpi.Comm) error {
		tr := trace.New().WithRecorder(recs[c.Rank()])
		xl := denseFromRows(xs[c.Rank()], x.Cols)
		start := time.Now()
		_, err := Lasso(xl, ys[c.Rank()], lassoOn(&LassoConfig{B1: 8, B2: 4, Q: 8, Seed: 13, Trace: tr}, Placement{Comm: c, Partitioned: true}))
		walls[c.Rank()] = time.Since(start).Seconds()
		if err != nil {
			return err
		}
		perRank[c.Rank()] = RankPerf(c, tr)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, rp := range perRank {
		if err := topLevelPartition(recs[r]); err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
		sum := rp.TopLevelSeconds()
		if sum > 1.05*walls[r] {
			t.Errorf("rank %d: top-level phases sum to %.4fs of %.4fs wall (overlap?)", r, sum, walls[r])
		}
		if len(rp.Comm) == 0 {
			t.Errorf("rank %d: no communication categories metered", r)
		}
		if rp.CommSeconds <= 0 {
			t.Errorf("rank %d: CommSeconds = %v, want > 0 (fit does Allreduces)", r, rp.CommSeconds)
		}
		if rp.ComputeSeconds+rp.CommSeconds < 0.9*sum {
			t.Errorf("rank %d: compute %v + comm %v does not cover phase total %v",
				r, rp.ComputeSeconds, rp.CommSeconds, sum)
		}
	}
	// The joined artifact round-trips.
	report := trace.NewPerfReport("lasso", walls[0], perRank)
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ParsePerfReport(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Ranks) != ranks {
		t.Fatalf("report has %d ranks, want %d", len(back.Ranks), ranks)
	}
	for i, rp := range back.Ranks {
		if rp.Rank != i {
			t.Fatalf("ranks not sorted: index %d holds rank %d", i, rp.Rank)
		}
	}
}

// topLevelPartition checks one rank's timeline: its top-level spans (names
// without '/') do not overlap, and every communication event lies inside
// one of them.
func topLevelPartition(rec *trace.Recorder) error {
	if rec.Dropped() != 0 {
		return fmt.Errorf("event ring dropped %d events", rec.Dropped())
	}
	type span struct {
		name   string
		lo, hi int64
	}
	var spans []span
	open := map[string]int64{}
	var comms []trace.Event
	for _, e := range rec.Events() {
		switch {
		case e.Kind == trace.EvComm:
			comms = append(comms, e)
		case strings.Contains(e.Name, "/"):
		case e.Kind == trace.EvBegin:
			open[e.Name] = e.TS
		case e.Kind == trace.EvEnd:
			spans = append(spans, span{e.Name, open[e.Name], e.TS})
			delete(open, e.Name)
		}
	}
	if len(spans) == 0 || len(open) != 0 {
		return fmt.Errorf("%d closed top-level spans, %v still open", len(spans), open)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			return fmt.Errorf("top-level spans %q and %q overlap", spans[i-1].name, spans[i].name)
		}
	}
	for _, c := range comms {
		i := sort.Search(len(spans), func(i int) bool { return spans[i].hi >= c.TS+c.Dur })
		if i == len(spans) || spans[i].lo > c.TS {
			return fmt.Errorf("%s call at %.3f ms lies outside every top-level span", c.Name, float64(c.TS)/1e6)
		}
	}
	return nil
}

// TestDistributedKernelWorkerBudget is the oversubscription regression at
// pipeline level: a 4-rank fit with an explicit per-rank kernel budget of 2
// must never run more than 4·2 kernel streams at once. Under the old global
// worker setting each rank's kernels spawned a full GOMAXPROCS set.
func TestDistributedKernelWorkerBudget(t *testing.T) {
	x, y, _ := makeRegression(47, 200, 20, 4, 0.3)
	rows := make([][]float64, x.Rows)
	for i := range rows {
		rows[i] = x.Row(i)
	}
	const ranks, budget = 4, 2
	xs, ys := shuffledBlocks(19, rows, y, x.Cols, ranks)
	mat.ResetPeakWorkers()
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		xl := denseFromRows(xs[c.Rank()], x.Cols)
		_, err := Lasso(xl, ys[c.Rank()], lassoOn(&LassoConfig{B1: 4, B2: 3, Q: 5, Seed: 23, KernelWorkers: budget}, Placement{Comm: c, Partitioned: true}))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak := mat.PeakWorkers(); peak > ranks*budget {
		t.Fatalf("peak kernel workers %d exceeds %d ranks x budget %d = %d",
			peak, ranks, budget, ranks*budget)
	}
}

// TestVARKernelWorkerBudget is the same regression for UoI_VAR, whose λ grid
// (vecLambdaMax) and held-out loss used to call the kernels with the default
// full-machine budget whatever the fit was given. The series is long enough
// that the full design (2199×41) and an evaluation design (≈440×41) cross
// the kernels' parallel gate; with KernelWorkers 1 every stream of the fit
// — bootstrap worker or grid rank — must stay a single kernel stream.
func TestVARKernelWorkerBudget(t *testing.T) {
	_, series := makeVARData(53, 40, 1, 2200)
	cfg := func(workers int) *VARConfig {
		return &VARConfig{Order: 1, B1: 2, B2: 2, Q: 3, Seed: 1, Workers: workers, KernelWorkers: 1}
	}
	for _, streams := range []int{1, 2} {
		mat.ResetPeakWorkers()
		if _, err := VAR(series, cfg(streams)); err != nil {
			t.Fatal(err)
		}
		if peak := mat.PeakWorkers(); peak > int64(streams) {
			t.Fatalf("Workers=%d KernelWorkers=1: peak kernel workers %d", streams, peak)
		}
	}
	// At budget 2 an estimation cell also fans its candidates out: each
	// stream stays within its two kernel streams.
	for _, streams := range []int{1, 2} {
		c := cfg(streams)
		c.KernelWorkers = 2
		mat.ResetPeakWorkers()
		if _, err := VAR(series, c); err != nil {
			t.Fatal(err)
		}
		if peak := mat.PeakWorkers(); peak > int64(2*streams) {
			t.Fatalf("Workers=%d KernelWorkers=2: peak kernel workers %d", streams, peak)
		}
	}
	const ranks = 2
	mat.ResetPeakWorkers()
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		_, err := VAR(series, varOn(cfg(0), Placement{Comm: c, Shape: GridShape{PB: ranks, PL: 1}}))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak := mat.PeakWorkers(); peak > ranks {
		t.Fatalf("%d grid ranks, KernelWorkers=1: peak kernel workers %d", ranks, peak)
	}
}

// TestLassoKernelWorkerBudget is the same regression for UoI_LASSO, whose λ
// grid used to be computed with the default-budget admm.LambdaMax: on the
// 2000×20 design the Aᵀy kernel of the time split its rows, so under
// KernelWorkers 1 the λ_max product alone ran GOMAXPROCS kernel streams. At
// every placement each stream of the fit must stay a single kernel stream.
func TestLassoKernelWorkerBudget(t *testing.T) {
	x, y, _ := makeRegression(59, 2000, 20, 4, 0.3)
	cfg := func(workers int) *LassoConfig {
		return &LassoConfig{B1: 2, B2: 2, Q: 3, Seed: 1, Workers: workers, KernelWorkers: 1}
	}
	for _, streams := range []int{1, 2} {
		mat.ResetPeakWorkers()
		if _, err := Lasso(x, y, cfg(streams)); err != nil {
			t.Fatal(err)
		}
		if peak := mat.PeakWorkers(); peak > int64(streams) {
			t.Fatalf("Workers=%d KernelWorkers=1: peak kernel workers %d", streams, peak)
		}
	}
	// At budget 2 an estimation cell also fans its candidates out: each
	// stream stays within its two kernel streams.
	for _, streams := range []int{1, 2} {
		c := cfg(streams)
		c.KernelWorkers = 2
		mat.ResetPeakWorkers()
		if _, err := Lasso(x, y, c); err != nil {
			t.Fatal(err)
		}
		if peak := mat.PeakWorkers(); peak > int64(2*streams) {
			t.Fatalf("Workers=%d KernelWorkers=2: peak kernel workers %d", streams, peak)
		}
	}
	const ranks = 2
	for _, place := range []string{"journal", "grid"} {
		mat.ResetPeakWorkers()
		err := mpi.Run(ranks, func(c *mpi.Comm) error {
			cfg := cfg(0)
			if place == "grid" {
				_, err := Lasso(x, y, lassoOn(cfg, Placement{Comm: c, Shape: GridShape{PB: ranks, PL: 1}}))
				return err
			}
			cfg.Checkpoint = &CheckpointConfig{Path: filepath.Join(t.TempDir(), "fit.uoickpt")}
			_, err := Lasso(x, y, lassoOn(cfg, Placement{Comm: c}))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if peak := mat.PeakWorkers(); peak > ranks {
			t.Fatalf("%s over %d ranks, KernelWorkers=1: peak kernel workers %d", place, ranks, peak)
		}
	}
}

// TestLassoFitAllocatesNoBootstrapCopies pins the cells' memory shape: no
// cell copies its rows, so a whole fit allocates less than twice the bytes
// of x. While every cell gathered its bootstrap (and its train and
// evaluation rows) a fit allocated about B1+B2 times x.
func TestLassoFitAllocatesNoBootstrapCopies(t *testing.T) {
	x, y, _ := makeRegression(61, 2048, 64, 6, 0.3)
	fit := func() {
		if _, err := Lasso(x, y, &LassoConfig{B1: 4, B2: 2, Q: 6, Seed: 1, Workers: 1, KernelWorkers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	fit() // fills the kernel's panel pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fit()
	runtime.ReadMemStats(&after)
	xBytes := uint64(8 * len(x.Data))
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2*xBytes {
		t.Fatalf("fit allocated %d bytes, want under 2× the %d bytes of x", got, xBytes)
	}
}

// BenchmarkLassoSelCell times one selection cell at the lasso_tall
// benchmark's shape (8192×256, Q=12, two kernel workers): the bootstrap
// draw, the weighted Gram and Xᵀy over the distinct rows, the Cholesky, and
// the warm-chained λ path.
func BenchmarkLassoSelCell(b *testing.B) {
	x, y, _ := makeRegression(67, 8192, 256, 12, 0.5)
	c := (&LassoConfig{Q: 12, Seed: 7, KernelWorkers: 2}).defaults()
	pb, _, err := newLassoProblem(x, y, &c, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pb.selCell(i%8, 0, len(pb.lambdas), nil, nil, trace.Span{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLassoEstCell times one estimation cell at the lasso_tall
// benchmark's shape (8192×256, B1 8, Q=12, two kernel workers) over the
// distinct supports of that fit: the Gram and Xᵀy of the training rows over
// the supports' columns once, then a Cholesky per support sub-block and its
// held-out loss.
func BenchmarkLassoEstCell(b *testing.B) {
	x, y, _ := makeRegression(67, 8192, 256, 12, 0.5)
	c := (&LassoConfig{B1: 8, B2: 4, Q: 12, Seed: 7, KernelWorkers: 2}).defaults()
	res, err := Lasso(x, y, &c)
	if err != nil {
		b.Fatal(err)
	}
	distinct := dedupeSupports(res.Supports)
	pb, _, err := newLassoProblem(x, y, &c, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pb.estCell(i%c.B2, distinct, trace.Span{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLassoTracing compares the full serial pipeline with tracing off
// (nil tracer: the default) and on — the <1% disabled-overhead budget is
// asserted against the "off" variant tracking the pre-instrumentation
// numbers.
func BenchmarkLassoTracing(b *testing.B) {
	x, y, _ := makeRegression(51, 200, 20, 4, 0.3)
	run := func(b *testing.B, tr *trace.Tracer) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Lasso(x, y, &LassoConfig{B1: 6, B2: 3, Q: 6, Seed: 1, Trace: tr}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("on", func(b *testing.B) { run(b, trace.New()) })
}

// TestVARTraced checks the Kronecker pipeline records its extra
// kron_assembly phase alongside the shared five.
func TestVARTraced(t *testing.T) {
	_, series := makeVARData(29, 6, 1, 240)
	tr := trace.New()
	if _, err := VAR(series, &VARConfig{Order: 1, B1: 5, B2: 3, Q: 5, Seed: 7, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	phases := topLevel(tr)
	for _, name := range []string{"kron_assembly", "lambda_grid", "selection", "intersection", "estimation", "union"} {
		if _, ok := phases[name]; !ok {
			t.Errorf("top-level phase %q missing (got %v)", name, phases)
		}
	}
	if tr.Counter("admm/factorizations") <= 0 {
		t.Error("admm/factorizations not recorded")
	}
}

// TestVARDistributedTraced checks that the distributed VAR records serial
// VAR's trace shape — bootstrap 0's kron_assembly and the lambda_grid
// derived from it at top level, beside the shared phases — and that its
// top-level phases are disjoint: they sum to no more than the fit's wall
// time.
func TestVARDistributedTraced(t *testing.T) {
	_, series := makeVARData(31, 6, 1, 240)
	const ranks = 2
	tracers := make([]*trace.Tracer, ranks)
	walls := make([]time.Duration, ranks)
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		tracers[c.Rank()] = trace.New()
		start := time.Now()
		_, err := VAR(series, varOn(&VARConfig{Order: 1, B1: 4, B2: 2, Q: 4, Seed: 3, Trace: tracers[c.Rank()]}, Placement{Comm: c, Partitioned: true, Assembly: KroneckerGets}))
		walls[c.Rank()] = time.Since(start)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, tr := range tracers {
		phases := topLevel(tr)
		for _, name := range []string{"kron_assembly", "lambda_grid", "selection", "intersection", "estimation", "union"} {
			if _, ok := phases[name]; !ok {
				t.Errorf("rank %d: top-level phase %q missing (got %v)", r, name, phases)
			}
		}
		sum := 0.0
		for _, s := range phases {
			sum += s
		}
		if sum > walls[r].Seconds() {
			t.Errorf("rank %d: top-level phases sum to %.6fs of a %.6fs fit: they overlap", r, sum, walls[r].Seconds())
		}
	}
}
