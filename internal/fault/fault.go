// Package fault provides deterministic, seeded fault plans for chaos
// testing the distributed UoI pipeline. A Plan is a reproducible schedule of
// injected failures — rank crashes at the Nth communication operation,
// straggler slowdowns, one-shot message delays, transient I/O read errors,
// per-bootstrap solve failures, and HTTP-level serving faults (replica
// kills, refused connections) — that plugs into the hooks exposed by
// internal/mpi (RunOptions.Fault), internal/hbf (OpenWithOptions),
// internal/uoi (LassoConfig.BootstrapFault) and internal/fleet
// (Config.FaultPlan).
//
// Determinism is the point: the paper's runs on up to 278,528 Cori KNL
// cores meet stragglers, dead ranks and flaky I/O nondeterministically; the
// chaos suite needs the same schedule to replay bit-identically so every
// failure mode is a regression test, not a flake. All decisions are pure
// functions of (seed, rank, operation index) — no wall clock, no global
// randomness.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"uoivar/internal/resample"
)

// Kind labels a fault event.
type Kind int

const (
	// Crash kills the target rank at its Op-th communication operation
	// (panic unwound by mpi.Run into a typed error; surviving ranks see
	// mpi.ErrRankFailed).
	Crash Kind = iota
	// Straggle delays every communication operation of the target rank from
	// index Op onward by Delay — the paper's Fig. 5 T_max/T_min variability.
	Straggle
	// Delay stalls exactly one communication operation (index Op) by Delay.
	Delay
	// IORead makes attempts 0..Count-1 of every read of segment chunk Chunk
	// fail with a transient error (retried by hbf's backoff loop).
	IORead
	// Bootstrap fails one (phase, index) bootstrap solve; with a quorum
	// configured the fit degrades instead of aborting.
	Bootstrap
	// ReplicaKill kills serving replica Rank at its Op-th routed HTTP
	// request — mid-request, after the router has committed the attempt —
	// so failover to the next ring replica is exercised, not just cold
	// routing around a dead member.
	ReplicaKill
	// ConnRefused makes HTTP request-operations Op..Op+Count-1 routed to
	// replica Rank fail as if the connection were refused, without the
	// request reaching the replica (the transport-level analog of IORead's
	// transient read faults).
	ConnRefused
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Straggle:
		return "straggle"
	case Delay:
		return "delay"
	case IORead:
		return "io-read"
	case Bootstrap:
		return "bootstrap"
	case ReplicaKill:
		return "replica-kill"
	case ConnRefused:
		return "conn-refused"
	}
	return "unknown"
}

// ErrInjected is the sentinel wrapped by every injected fault, so tests can
// distinguish scheduled faults from genuine failures.
var ErrInjected = errors.New("fault: injected")

// Event is one scheduled fault.
type Event struct {
	Kind Kind
	// Rank is the target world rank (Crash/Straggle/Delay).
	Rank int
	// Op is the 0-based communication-operation index on the target rank at
	// which the event fires (Crash/Delay) or begins (Straggle).
	Op int
	// Delay is the injected latency (Straggle/Delay).
	Delay time.Duration
	// Chunk is the failing chunk index for IORead; -1 matches every read,
	// including header reads (which hbf reports as chunk -1).
	Chunk int
	// Count is the number of consecutive failing attempts for IORead.
	Count int
	// Phase and K identify the failing bootstrap ("selection" or
	// "estimation", bootstrap index) for Bootstrap events.
	Phase string
	K     int
}

func (e Event) String() string {
	switch e.Kind {
	case Crash:
		return fmt.Sprintf("crash{rank %d, op %d}", e.Rank, e.Op)
	case Straggle:
		return fmt.Sprintf("straggle{rank %d, op %d+, %v}", e.Rank, e.Op, e.Delay)
	case Delay:
		return fmt.Sprintf("delay{rank %d, op %d, %v}", e.Rank, e.Op, e.Delay)
	case IORead:
		return fmt.Sprintf("io-read{chunk %d, %d attempts}", e.Chunk, e.Count)
	case Bootstrap:
		return fmt.Sprintf("bootstrap{%s %d}", e.Phase, e.K)
	case ReplicaKill:
		return fmt.Sprintf("replica-kill{replica %d, req %d}", e.Rank, e.Op)
	case ConnRefused:
		return fmt.Sprintf("conn-refused{replica %d, req %d, %d attempts}", e.Rank, e.Op, e.Count)
	}
	return "event{?}"
}

// Plan is a deterministic fault schedule for one world of size ranks. The
// zero-event plan injects nothing. Plans are safe for concurrent use by all
// rank goroutines.
type Plan struct {
	seed    uint64
	events  []Event
	ops     []atomic.Int64 // per-rank communication-op counters
	httpOps []atomic.Int64 // per-replica HTTP request-op counters
}

// NewPlan builds a plan over the given events for a world of size ranks.
// The same size bounds the serving-replica index space of ReplicaKill and
// ConnRefused events.
func NewPlan(size int, events ...Event) *Plan {
	return &Plan{events: events, ops: make([]atomic.Int64, size), httpOps: make([]atomic.Int64, size)}
}

// String renders the schedule for logging.
func (p *Plan) String() string {
	if len(p.events) == 0 {
		return fmt.Sprintf("fault.Plan{seed %d, no events}", p.seed)
	}
	parts := make([]string, len(p.events))
	for i, e := range p.events {
		parts[i] = e.String()
	}
	return fmt.Sprintf("fault.Plan{seed %d, %s}", p.seed, strings.Join(parts, ", "))
}

// CommOp implements mpi.FaultInjector: it is invoked by the mpi runtime at
// the start of every communication operation of worldRank and returns the
// latency to inject plus a non-nil crash error when the rank is scheduled
// to die here. The operation index advances on every call, so the decision
// sequence is a pure function of the schedule.
func (p *Plan) CommOp(worldRank int) (delay time.Duration, crash error) {
	if worldRank < 0 || worldRank >= len(p.ops) {
		return 0, nil
	}
	op := int(p.ops[worldRank].Add(1)) - 1
	for _, e := range p.events {
		if e.Rank != worldRank {
			continue
		}
		switch e.Kind {
		case Crash:
			if op == e.Op {
				crash = fmt.Errorf("%w: rank %d crashed at comm op %d", ErrInjected, worldRank, op)
			}
		case Straggle:
			if op >= e.Op {
				delay += e.Delay
			}
		case Delay:
			if op == e.Op {
				delay += e.Delay
			}
		}
	}
	return delay, crash
}

// HTTPOp implements the fleet router's fault hook: it is invoked once per
// request attempt routed to replica, advancing that replica's request-op
// counter. It returns kill=true when the replica is scheduled to die at
// this request (the router invokes its kill callback mid-request, after
// the attempt is committed) and a non-nil refuse error when the attempt
// must fail as connection-refused without reaching the replica. Like
// CommOp, the decision sequence is a pure function of the schedule, so a
// fresh Plan over the same events replays it bit-identically.
func (p *Plan) HTTPOp(replica int) (kill bool, refuse error) {
	if replica < 0 || replica >= len(p.httpOps) {
		return false, nil
	}
	op := int(p.httpOps[replica].Add(1)) - 1
	for _, e := range p.events {
		if e.Rank != replica {
			continue
		}
		switch e.Kind {
		case ReplicaKill:
			if op == e.Op {
				kill = true
			}
		case ConnRefused:
			if op >= e.Op && op < e.Op+e.Count {
				refuse = fmt.Errorf("%w: connection refused to replica %d at request op %d", ErrInjected, replica, op)
			}
		}
	}
	return kill, refuse
}

// IOFault matches hbf's read-fault hook: attempt a (0-based) of a read of
// chunk (−1 = header) fails while a < Count for a matching IORead event.
// Stateless, so every retry sequence replays identically.
func (p *Plan) IOFault(chunk, attempt int) error {
	for _, e := range p.events {
		if e.Kind != IORead {
			continue
		}
		if (e.Chunk == chunk || e.Chunk == -1) && attempt < e.Count {
			return fmt.Errorf("%w: transient read fault on chunk %d attempt %d", ErrInjected, chunk, attempt)
		}
	}
	return nil
}

// BootstrapFault matches uoi's bootstrap-fault hook: the (phase, k)
// bootstrap fails when scheduled. Rank-independent, so every rank of every
// process-grid group agrees on the failure without communication.
func (p *Plan) BootstrapFault(phase string, k int) error {
	for _, e := range p.events {
		if e.Kind == Bootstrap && e.Phase == phase && e.K == k {
			return fmt.Errorf("%w: bootstrap %s %d failed", ErrInjected, phase, k)
		}
	}
	return nil
}

// GenOptions bounds Generate's seeded random schedules.
type GenOptions struct {
	// PCrash, PStraggle, PDelay, PIO, PBootstrap, PReplicaKill,
	// PConnRefused are per-category inclusion probabilities in [0,1].
	PCrash, PStraggle, PDelay, PIO, PBootstrap, PReplicaKill, PConnRefused float64
	// MaxOp bounds the operation index of Crash/Straggle/Delay events
	// (default 40).
	MaxOp int
	// MaxDelay bounds injected latencies (default 20ms).
	MaxDelay time.Duration
	// MaxIOFails bounds IORead consecutive-failure counts (default 2).
	MaxIOFails int
	// MaxBootstraps bounds the Bootstrap event index K (default 20); set it
	// to min(B1, B2) so scheduled bootstrap faults always land.
	MaxBootstraps int
}

func (o GenOptions) defaults() GenOptions {
	if o.MaxOp <= 0 {
		o.MaxOp = 40
	}
	if o.MaxDelay <= 0 {
		o.MaxDelay = 20 * time.Millisecond
	}
	if o.MaxIOFails <= 0 {
		o.MaxIOFails = 2
	}
	if o.MaxBootstraps <= 0 {
		o.MaxBootstraps = 20
	}
	return o
}

// Generate derives a reproducible random schedule from seed for a world of
// size ranks: the same (seed, size, opts) always yields the same Plan.
func Generate(seed uint64, size int, opts GenOptions) *Plan {
	o := opts.defaults()
	rng := resample.NewRNG(seed)
	var events []Event
	if rng.Float64() < o.PCrash {
		events = append(events, Event{
			Kind: Crash,
			Rank: rng.Intn(size),
			Op:   rng.Intn(o.MaxOp),
		})
	}
	if rng.Float64() < o.PStraggle {
		events = append(events, Event{
			Kind:  Straggle,
			Rank:  rng.Intn(size),
			Op:    rng.Intn(o.MaxOp),
			Delay: time.Duration(1 + rng.Intn(int(o.MaxDelay))),
		})
	}
	if rng.Float64() < o.PDelay {
		events = append(events, Event{
			Kind:  Delay,
			Rank:  rng.Intn(size),
			Op:    rng.Intn(o.MaxOp),
			Delay: time.Duration(1 + rng.Intn(int(o.MaxDelay))),
		})
	}
	if rng.Float64() < o.PIO {
		chunk := rng.Intn(4) - 1 // -1 (all chunks) .. 2
		events = append(events, Event{
			Kind:  IORead,
			Chunk: chunk,
			Count: 1 + rng.Intn(o.MaxIOFails),
		})
	}
	if rng.Float64() < o.PBootstrap {
		phase := "selection"
		if rng.Float64() < 0.5 {
			phase = "estimation"
		}
		events = append(events, Event{
			Kind:  Bootstrap,
			Phase: phase,
			K:     rng.Intn(o.MaxBootstraps),
		})
	}
	if rng.Float64() < o.PReplicaKill {
		events = append(events, Event{
			Kind: ReplicaKill,
			Rank: rng.Intn(size),
			Op:   rng.Intn(o.MaxOp),
		})
	}
	if rng.Float64() < o.PConnRefused {
		events = append(events, Event{
			Kind:  ConnRefused,
			Rank:  rng.Intn(size),
			Op:    rng.Intn(o.MaxOp),
			Count: 1 + rng.Intn(o.MaxIOFails),
		})
	}
	// Stable order for readable String() output regardless of draw order.
	sort.SliceStable(events, func(i, j int) bool { return events[i].Kind < events[j].Kind })
	p := NewPlan(size, events...)
	p.seed = seed
	return p
}
