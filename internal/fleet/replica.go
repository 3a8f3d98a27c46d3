package fleet

import (
	"errors"
	"fmt"
	"sync"

	"uoivar/internal/model"
	"uoivar/internal/monitor"
	"uoivar/internal/serve"
	"uoivar/internal/stream"
)

// ReplicaConfig configures one in-process serving replica. Replicas share
// nothing: each Start builds a fresh registry, batcher set, and cache from
// the artifact source.
type ReplicaConfig struct {
	// ID is the replica's stable identity on the ring (the ring hashes
	// IDs, not addresses, so a restart that lands on a new port does not
	// remap any keys).
	ID int
	// ModelsDir, when non-empty, is warmed from the *.uoim artifacts under
	// it on every (re)start.
	ModelsDir string
	// Artifacts, when non-nil, is a programmatic artifact source used
	// instead of ModelsDir (benches and tests).
	Artifacts map[string]*model.Artifact
	// Serve carries the per-replica server tuning (batch window, cache,
	// inflight caps). Registry, Monitor, and Streams are owned by the
	// replica and must be nil. Metrics and AccessLog may be set (typically
	// shared with the router and the sibling replicas — the telemetry
	// registry and access logger are concurrency-safe); the replica stamps
	// Serve.Replica with its ring ID so shared series stay distinguishable.
	Serve serve.Config
	// Stream, when non-nil, enables streaming ingest on this replica: each
	// Start builds a fresh stream.Manager over the replica's registry so
	// ingested windows and refit state live with the replica that owns the
	// model on the ring.
	Stream *stream.Options
}

// Replica is one member of the fleet: a serve.Server plus the lifecycle
// the router needs — Start with warm-up, abrupt Kill (chaos), and Restart.
// The HTTP listener comes up before artifacts load, so a restarting
// replica answers /healthz 503 ("no models loaded") until warm-up
// completes; the router's prober therefore re-admits it only once it can
// actually serve.
type Replica struct {
	cfg ReplicaConfig

	mu     sync.Mutex
	server *serve.Server
	mon    *monitor.Server
	addr   string
	alive  bool
}

// NewReplica builds a stopped replica; call Start before routing to it.
func NewReplica(cfg ReplicaConfig) *Replica {
	return &Replica{cfg: cfg}
}

// ID returns the replica's ring identity.
func (r *Replica) ID() int { return r.cfg.ID }

// Addr returns the replica's current listen address ("" when stopped).
func (r *Replica) Addr() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.addr
}

// Start brings the replica up: listener first (so /healthz observably
// fails during warm-up), then artifact loading. Idempotent while alive.
func (r *Replica) Start() error {
	r.mu.Lock()
	if r.alive {
		r.mu.Unlock()
		return nil
	}
	cfg := r.cfg.Serve
	if cfg.Registry != nil || cfg.Monitor != nil || cfg.Streams != nil {
		r.mu.Unlock()
		return errors.New("fleet: ReplicaConfig.Serve must not carry Registry, Monitor, or Streams")
	}
	reg := serve.NewRegistry()
	cfg.Registry = reg
	cfg.Replica = fmt.Sprint(r.cfg.ID)
	mon := monitor.New(fmt.Sprintf("replica-%d", r.cfg.ID))
	cfg.Monitor = mon
	if r.cfg.Stream != nil {
		// The manager creates engines lazily on first ingest, so building it
		// before warm-up populates the registry is safe.
		mgr := stream.NewManager(reg, *r.cfg.Stream)
		cfg.Streams = mgr
		mon.SetDegraded(mgr.Degraded)
	}
	srv := serve.New(cfg)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		r.mu.Unlock()
		return fmt.Errorf("fleet: replica %d: %w", r.cfg.ID, err)
	}
	r.server, r.mon, r.addr, r.alive = srv, mon, addr, true
	r.mu.Unlock()

	// Warm-up outside the lock: the listener is up but /healthz reports
	// 503 until the registry is populated.
	if err := r.warmUp(reg); err != nil {
		r.Kill()
		return fmt.Errorf("fleet: replica %d warm-up: %w", r.cfg.ID, err)
	}
	return nil
}

// warmUp populates a fresh registry from the configured artifact source.
func (r *Replica) warmUp(reg *serve.Registry) error {
	if r.cfg.Artifacts != nil {
		for name, art := range r.cfg.Artifacts {
			if _, err := reg.Set(name, art, ""); err != nil {
				return err
			}
		}
		return nil
	}
	if r.cfg.ModelsDir == "" {
		return errors.New("no artifact source (ModelsDir or Artifacts)")
	}
	entries, err := reg.LoadDir(r.cfg.ModelsDir)
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("no %s artifacts under %s", model.Ext, r.cfg.ModelsDir)
	}
	return nil
}

// Kill stops the replica abruptly: in-flight requests see their
// connections reset, exactly like a crashed process. Idempotent.
func (r *Replica) Kill() {
	r.mu.Lock()
	srv := r.server
	r.server, r.mon, r.addr, r.alive = nil, nil, "", false
	r.mu.Unlock()
	if srv != nil {
		srv.Close() //nolint:errcheck // abrupt by design
	}
}

// Restart is Kill-then-Start for replicas already dead; on a live replica
// it recycles the server (fresh registry, re-read artifacts).
func (r *Replica) Restart() error {
	r.Kill()
	return r.Start()
}

// Shutdown drains the replica gracefully (used by fleet shutdown, not by
// chaos). Idempotent with Kill.
func (r *Replica) Shutdown() {
	r.mu.Lock()
	srv := r.server
	r.server, r.mon, r.addr, r.alive = nil, nil, "", false
	r.mu.Unlock()
	if srv != nil {
		srv.Close() //nolint:errcheck // fleet-level drain already completed
	}
}
