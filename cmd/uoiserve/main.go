// Command uoiserve serves saved UoI model artifacts (.uoim, written by
// uoifit -model-out or uoivar.SaveModel) over HTTP — the inference half of
// the training/inference split.
//
//	uoiserve -models ./models -addr localhost:8080
//
// loads every *.uoim under -models (each served under its base name) and
// answers:
//
//	GET  /v1/models    — the registry listing (name, version, kind, p, order)
//	POST /v1/forecast  — {"model","history":[[...]],"horizon"} → conditional means
//	POST /v1/granger   — {"model","tol","self_loops"} → the Granger edge list
//	POST /v1/reload    — re-read artifacts from disk, hot-swapping new versions
//	GET  /healthz      — 200 while serving, 503 while empty or draining
//	GET  /debug/uoivar — live counters (batches, cache hits, inflight limits)
//	GET  /metrics      — Prometheus text exposition (with -metrics): request
//	                     latency histograms, batch depths, fleet health,
//	                     streaming refit families
//
// With -metrics, every layer records Prometheus telemetry into one shared
// registry; with -access-log FILE (or "-" for stderr), each request emits a
// structured JSON access-log line per hop, joined by the propagated
// X-Request-ID header (client-supplied IDs are preserved; -access-log-sample
// thins successful lines, errors and failovers always log).
//
// With -stream, two more endpoints keep served VAR models fresh under
// continuous data:
//
//	POST /v1/ingest        — {"model","rows":[[...]]} appends observations to
//	                         the model's sliding window (-window rows, or the
//	                         effective window of -forget); every -refit-every
//	                         rows a background refit re-runs the model's
//	                         recorded UoI-VAR recipe on the window — warm-
//	                         started from the previous model and reusing
//	                         unchanged bootstrap cells — and hot-swaps the
//	                         result into the registry (version bumps, old
//	                         model serves until the instant of the swap)
//	GET  /v1/stream/status — per-model window fill, refit counts/latency, and
//	                         last error
//
// Concurrent forecasts against one model coalesce into batched GEMMs
// (-batch-max): a batch takes what is already queued and runs at once,
// holding open for -batch-window only while a streaming refit runs;
// responses are bit-identical to unbatched evaluation. Repeated requests are answered from an LRU cache
// (-cache-entries, X-Cache header). Per-endpoint concurrency is capped at
// -max-inflight (429 beyond it) and every request gets a -timeout deadline
// (504 past it). SIGINT/SIGTERM drain gracefully: health goes 503, in-flight
// requests finish, then the process exits.
//
// With -replicas N (N > 1) the command instead runs a replicated fleet in
// one process: N share-nothing serving replicas, each warmed from -models,
// behind a consistent-hash router on -addr. The router ring-hashes model
// names onto -replication-factor preferred owners, fails over on replica
// death with capped-jitter backoff, optionally hedges slow idempotent
// reads (-hedge), and evicts/re-admits replicas by probing their /healthz.
// /healthz on the router reports "degraded: replica N evicted" while any
// member is down. The -chaos-kill R@OP flag (smoke tests) deterministically
// kills replica R at its OP-th routed request; -chaos-restart brings it
// back after a delay so the probe-driven rejoin can be observed end to end.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"uoivar/internal/fault"
	"uoivar/internal/fleet"
	"uoivar/internal/model"
	"uoivar/internal/monitor"
	"uoivar/internal/serve"
	"uoivar/internal/stream"
	"uoivar/internal/telemetry"
	"uoivar/internal/trace"
)

// options carries every run parameter plus the test seams (bound-address
// notification and the shutdown-signal source).
type options struct {
	Models       string
	Addr         string
	BatchWindow  time.Duration
	BatchMax     int
	CacheEntries int
	MaxInflight  int
	Timeout      time.Duration
	DrainWait    time.Duration

	// Telemetry (-metrics / -access-log).
	Metrics         bool
	AccessLog       string
	AccessLogSample float64

	// Streaming mode (-stream).
	Stream     bool
	RefitEvery int
	Window     int
	Forget     float64

	// Fleet mode (Replicas > 1).
	Replicas          int
	ReplicationFactor int
	Hedge             time.Duration
	ChaosKill         string
	ChaosRestart      time.Duration

	// bound, when non-nil, receives the listener's address once serving.
	bound chan<- string
	// signals overrides the OS signal source in tests.
	signals <-chan os.Signal
}

func main() {
	o := &options{}
	flag.StringVar(&o.Models, "models", "", "directory of *.uoim artifacts to serve (required)")
	flag.StringVar(&o.Addr, "addr", "localhost:8080", "listen address")
	flag.DurationVar(&o.BatchWindow, "batch-window", 2*time.Millisecond, "how long a forecast batch collects companions while a streaming refit runs (no refit: dispatch at once)")
	flag.IntVar(&o.BatchMax, "batch-max", 64, "max coalesced forecast batch size")
	flag.IntVar(&o.CacheEntries, "cache-entries", 256, "LRU response-cache capacity (negative disables)")
	flag.IntVar(&o.MaxInflight, "max-inflight", 256, "per-endpoint concurrency limit (429 beyond it)")
	flag.DurationVar(&o.Timeout, "timeout", 30*time.Second, "per-request deadline (504 past it)")
	flag.DurationVar(&o.DrainWait, "drain-wait", 30*time.Second, "max graceful-shutdown wait on SIGINT/SIGTERM")
	flag.BoolVar(&o.Metrics, "metrics", false, "expose Prometheus telemetry at GET /metrics (latency histograms, fleet health, stream refits)")
	flag.StringVar(&o.AccessLog, "access-log", "", "write structured JSON access logs to this file (\"-\" = stderr; request IDs join router and replica lines)")
	flag.Float64Var(&o.AccessLogSample, "access-log-sample", 1, "fraction of successful requests logged (errors and failovers always log)")
	flag.BoolVar(&o.Stream, "stream", false, "enable streaming ingest: POST /v1/ingest buffers observations and refits VAR models in the background")
	flag.IntVar(&o.RefitEvery, "refit-every", 256, "ingested rows between background refits (0 = never; streaming mode)")
	flag.IntVar(&o.Window, "window", 512, "sliding-window cap in rows for streaming refits")
	flag.Float64Var(&o.Forget, "forget", 0, "forgetting factor γ in (0,1): truncate the window where weights γ^age fall below 1% (0 disables; streaming mode)")
	flag.IntVar(&o.Replicas, "replicas", 1, "serving replicas behind the consistent-hash router (>1 enables fleet mode)")
	flag.IntVar(&o.ReplicationFactor, "replication-factor", 2, "preferred ring owners per model name (fleet mode)")
	flag.DurationVar(&o.Hedge, "hedge", 0, "hedged-send delay for idempotent reads (0 disables; fleet mode)")
	flag.StringVar(&o.ChaosKill, "chaos-kill", "", "kill a replica at its OP-th routed request, format R@OP or MODEL@OP (fleet smoke tests)")
	flag.DurationVar(&o.ChaosRestart, "chaos-restart", 0, "restart a chaos-killed replica after this delay (0 leaves it dead)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "uoiserve:", err)
		os.Exit(1)
	}
}

func run(o *options) error {
	if o.Models == "" {
		return fmt.Errorf("-models is required")
	}
	if o.Replicas > 1 {
		return runFleet(o)
	}
	reg := serve.NewRegistry()
	entries, err := reg.LoadDir(o.Models)
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("no %s artifacts under %s", model.Ext, o.Models)
	}
	for _, e := range entries {
		fmt.Printf("loaded %s@%d (%s, p=%d", e.Name, e.Version, e.Artifact.Meta.Kind, e.Artifact.Meta.P)
		if e.Artifact.Meta.Order > 0 {
			fmt.Printf(", order=%d", e.Artifact.Meta.Order)
		}
		fmt.Printf(", support=%d) from %s\n", e.Artifact.Meta.Stats.SupportSize, e.Path)
	}

	tr := trace.New()
	mon := monitor.New("uoiserve")
	mon.SetState(func() map[string]any { return map[string]any{"models": reg.Len()} })
	mon.SetTracer(tr)
	treg, accessLog, cleanup, err := telemetrySinks(o)
	if err != nil {
		return err
	}
	defer cleanup()
	mon.SetMetrics(treg)
	if o.Metrics {
		fmt.Println("telemetry: GET /metrics enabled")
	}
	cfg := serve.Config{
		Registry:     reg,
		BatchWindow:  o.BatchWindow,
		BatchMax:     o.BatchMax,
		CacheEntries: o.CacheEntries,
		MaxInflight:  o.MaxInflight,
		Timeout:      o.Timeout,
		Tracer:       tr,
		Monitor:      mon,
		Metrics:      treg,
		AccessLog:    accessLog,
	}
	if o.Stream {
		mgr := stream.NewManager(reg, *streamOptions(o, tr, treg))
		cfg.Streams = mgr
		mon.SetDegraded(mgr.Degraded)
		fmt.Printf("streaming enabled: window=%d refit-every=%d forget=%g\n", o.Window, o.RefitEvery, o.Forget)
	}
	s := serve.New(cfg)
	bound, err := s.ListenAndServe(o.Addr)
	if err != nil {
		return err
	}
	fmt.Printf("serving %d model(s) on http://%s\n", len(entries), bound)
	sig := o.awaitShutdown(bound)
	fmt.Printf("%s: draining (up to %s)...\n", sig, o.DrainWait)
	ctx, cancel := context.WithTimeout(context.Background(), o.DrainWait)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Println("drained cleanly")
	return nil
}

// awaitShutdown hands the bound address to a waiting test, then blocks
// until a shutdown signal arrives.
func (o *options) awaitShutdown(bound string) os.Signal {
	if o.bound != nil {
		o.bound <- bound
	}
	sigs := o.signals
	if sigs == nil {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		sigs = ch
	}
	return <-sigs
}

// streamOptions maps the -stream family of flags onto stream.Options.
func streamOptions(o *options, tr *trace.Tracer, treg *telemetry.Registry) *stream.Options {
	return &stream.Options{
		Window:     o.Window,
		Forget:     o.Forget,
		RefitEvery: o.RefitEvery,
		Tracer:     tr,
		Metrics:    treg,
	}
}

// telemetrySinks maps the -metrics / -access-log flags onto their sinks: a
// nil registry and logger leave every serving layer on its zero-cost
// disabled path. The returned cleanup closes the access-log file.
func telemetrySinks(o *options) (*telemetry.Registry, *telemetry.AccessLogger, func(), error) {
	var reg *telemetry.Registry
	if o.Metrics {
		reg = telemetry.NewRegistry()
	}
	cleanup := func() {}
	if o.AccessLog == "" {
		return reg, nil, cleanup, nil
	}
	w := io.Writer(os.Stderr)
	if o.AccessLog != "-" {
		f, err := os.OpenFile(o.AccessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("-access-log: %w", err)
		}
		w = f
		cleanup = func() { f.Close() } //nolint:errcheck // best-effort log sink
	}
	return reg, telemetry.NewAccessLogger(w, o.AccessLogSample), cleanup, nil
}

// chaosPlan translates the -chaos-kill/-chaos-restart flags into a seeded
// fault plan plus the router's kill callback. An empty spec returns nils
// (no injection). The victim may be a replica index or a model name — a
// name resolves to that model's primary ring owner, which is the replica
// actually taking the model's traffic.
func chaosPlan(o *options, reps []*fleet.Replica) (*fault.Plan, func(id int), error) {
	if o.ChaosKill == "" {
		return nil, nil, nil
	}
	at := strings.LastIndex(o.ChaosKill, "@")
	if at <= 0 {
		return nil, nil, fmt.Errorf("-chaos-kill %q: want R@OP or MODEL@OP (e.g. 1@20)", o.ChaosKill)
	}
	op, err := strconv.Atoi(o.ChaosKill[at+1:])
	if err != nil || op < 0 {
		return nil, nil, fmt.Errorf("-chaos-kill %q: bad op index", o.ChaosKill)
	}
	who := o.ChaosKill[:at]
	victim, err := strconv.Atoi(who)
	if err != nil {
		ring := fleet.NewRing(0)
		for i := range reps {
			ring.Add(i)
		}
		victim = ring.Lookup(who, 1)[0]
		fmt.Printf("chaos: model %q is primary on replica %d\n", who, victim)
	}
	if victim < 0 || victim >= len(reps) {
		return nil, nil, fmt.Errorf("-chaos-kill %q: replica out of range (fleet has %d)", o.ChaosKill, len(reps))
	}
	plan := fault.NewPlan(len(reps), fault.Event{Kind: fault.ReplicaKill, Rank: victim, Op: op})
	kill := func(id int) {
		rep := reps[id]
		rep.Kill()
		fmt.Printf("chaos: killed replica %d\n", id)
		if o.ChaosRestart > 0 {
			time.AfterFunc(o.ChaosRestart, func() {
				if err := rep.Restart(); err != nil {
					fmt.Fprintf(os.Stderr, "chaos: restart replica %d: %v\n", id, err)
					return
				}
				fmt.Printf("chaos: restarted replica %d on %s\n", id, rep.Addr())
			})
		}
	}
	return plan, kill, nil
}

// runFleet starts o.Replicas share-nothing serving replicas plus the
// consistent-hash router that fronts them, then serves until a shutdown
// signal drains the router and stops the fleet.
func runFleet(o *options) error {
	reps := make([]*fleet.Replica, o.Replicas)
	backends := make([]fleet.Backend, o.Replicas)
	// The registry and access logger are shared by the router and every
	// replica: one /metrics page covers the whole fleet (series carry
	// replica labels) and one log joins a request's hops by request ID.
	treg, accessLog, cleanup, err := telemetrySinks(o)
	if err != nil {
		return err
	}
	defer cleanup()
	var streamOpts *stream.Options
	if o.Stream {
		// Each replica owns its stream state; ingest routes to a model's
		// ring primary, so windows accumulate where the model serves.
		streamOpts = streamOptions(o, nil, treg)
	}
	for i := range reps {
		reps[i] = fleet.NewReplica(fleet.ReplicaConfig{
			ID:        i,
			ModelsDir: o.Models,
			Serve: serve.Config{
				BatchWindow:  o.BatchWindow,
				BatchMax:     o.BatchMax,
				CacheEntries: o.CacheEntries,
				MaxInflight:  o.MaxInflight,
				Timeout:      o.Timeout,
				Metrics:      treg,
				AccessLog:    accessLog,
			},
			Stream: streamOpts,
		})
		backends[i] = reps[i]
	}
	stopAll := func() {
		for _, r := range reps {
			r.Shutdown()
		}
	}
	for i, r := range reps {
		if err := r.Start(); err != nil {
			stopAll()
			return fmt.Errorf("replica %d: %w", i, err)
		}
		fmt.Printf("replica %d warmed from %s on http://%s\n", i, o.Models, r.Addr())
	}

	plan, kill, err := chaosPlan(o, reps)
	if err != nil {
		stopAll()
		return err
	}

	tr := trace.New()
	mon := monitor.New("uoiserve-fleet")
	mon.SetMetrics(treg)
	mon.SetTracer(tr)
	if o.Metrics {
		fmt.Println("telemetry: GET /metrics enabled (fleet-wide registry)")
	}
	rt, err := fleet.NewRouter(fleet.Config{
		Backends:          backends,
		ReplicationFactor: o.ReplicationFactor,
		Timeout:           o.Timeout,
		HedgeDelay:        o.Hedge,
		FaultPlan:         plan,
		Kill:              kill,
		Tracer:            tr,
		Monitor:           mon,
		Metrics:           treg,
		AccessLog:         accessLog,
	})
	if err != nil {
		stopAll()
		return err
	}
	mon.SetState(rt.State)
	bound, err := rt.ListenAndServe(o.Addr)
	if err != nil {
		stopAll()
		return err
	}
	fmt.Printf("routing %d replica(s) (replication factor %d) on http://%s\n",
		o.Replicas, o.ReplicationFactor, bound)
	sig := o.awaitShutdown(bound)
	fmt.Printf("%s: draining fleet (up to %s)...\n", sig, o.DrainWait)
	ctx, cancel := context.WithTimeout(context.Background(), o.DrainWait)
	defer cancel()
	err = rt.Shutdown(ctx)
	stopAll()
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Println("fleet drained cleanly")
	return nil
}
