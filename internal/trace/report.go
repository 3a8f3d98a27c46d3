package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// SchemaVersion identifies the PerfReport JSON layout, the only one
// ParsePerfReport accepts. Bump on breaking changes; consumers (and the
// golden test) pin against it.
const SchemaVersion = "uoivar/perf-report/v2"

// PerfReport is the structured performance artifact a run emits behind
// -perf-report: per-rank phase timings joined with the per-rank
// communication meters of internal/mpi — the machine-readable form of the
// paper's Fig. 2/7 computation-vs-communication breakdown tables.
type PerfReport struct {
	Schema      string     `json:"schema"`
	Name        string     `json:"name"`
	WallSeconds float64    `json:"wall_seconds"`
	Ranks       []RankPerf `json:"ranks"`
}

// RankPerf is one rank's view: its compute-phase spans and counters (from a
// Tracer) plus its communication meters (from mpi.Stats). ComputeSeconds is
// the top-level phase total minus CommSeconds — communication happens
// inside the phase spans, so subtracting it yields the disjoint
// compute-vs-comm split the paper charts.
type RankPerf struct {
	Rank           int              `json:"rank"`
	Phases         []PhaseStat      `json:"phases"`
	Counters       map[string]int64 `json:"counters,omitempty"`
	Comm           []CommStat       `json:"comm,omitempty"`
	ComputeSeconds float64          `json:"compute_seconds"`
	CommSeconds    float64          `json:"comm_seconds"`
	// Peers (schema v2) is this rank's slice of the per-pair communication
	// matrix: one row per (peer, category, direction) with nonzero traffic.
	// RMA transfers are recorded entirely by the origin rank, so a window
	// target's "send" rows describe data served from its exposed buffer.
	Peers []PeerFlow `json:"peers,omitempty"`
	// DroppedEvents (schema v2) counts per-rank event-ring evictions when an
	// event recorder was attached (0 = complete timeline or no recorder).
	DroppedEvents int64 `json:"dropped_events,omitempty"`
}

// PeerFlow is one directed per-peer communication row (schema v2).
type PeerFlow struct {
	Peer      int     `json:"peer"`
	Category  string  `json:"category"`
	Direction string  `json:"direction"` // "send" | "recv"
	Calls     int64   `json:"calls"`
	Bytes     int64   `json:"bytes"`
	Seconds   float64 `json:"seconds"`
}

// AddPeer appends one per-peer communication row.
func (r *RankPerf) AddPeer(peer int, category, direction string, calls, bytes int64, seconds float64) {
	r.Peers = append(r.Peers, PeerFlow{
		Peer: peer, Category: category, Direction: direction,
		Calls: calls, Bytes: bytes, Seconds: seconds,
	})
}

// PhaseStat is one phase's aggregate: how many spans closed and their total
// wall time. Top-level phases (no '/') partition a rank's run; nested
// phases ("selection/bootstrap") break them down and may overlap in wall
// time when bootstraps run concurrently.
type PhaseStat struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	Seconds float64 `json:"seconds"`
}

// CommStat mirrors one mpi.Stats category (p2p, collective, one-sided); the
// rows come from mpi.Stats.Rows. Category may carry a communicator label suffix — "p2p[row]" —
// when the fit attributed traffic to labeled communicators (the 2-D grid
// engine labels its world comm and row sub-comm); labeled rows are a breakdown of
// the unlabeled aggregate, not additional traffic.
type CommStat struct {
	Category string  `json:"category"`
	Calls    int64   `json:"calls"`
	Bytes    int64   `json:"bytes"`
	Seconds  float64 `json:"seconds"`
	// WaitSeconds is the blocked portion of Seconds: time spent waiting for
	// peers (barrier entry, p2p channel block, nonblocking-request Wait)
	// rather than moving bytes; omitted when zero.
	WaitSeconds float64 `json:"wait_seconds,omitempty"`
}

// RankPerf snapshots the tracer into a report entry for the given rank.
// Comm and the compute/comm seconds are left for the caller to fill (see
// uoi.RankPerf, which appends the mpi meters' Stats.Rows); FinalizeCompute
// derives the compute split once Comm is set.
func (t *Tracer) RankPerf(rank int) RankPerf {
	return RankPerf{
		Rank:     rank,
		Phases:   t.Phases(),
		Counters: t.Counters(),
	}
}

// TopLevelSeconds sums the top-level phases (names without '/') — the
// wall-time partition of the rank's run.
func (r *RankPerf) TopLevelSeconds() float64 {
	s := 0.0
	for _, p := range r.Phases {
		if !strings.Contains(p.Name, "/") {
			s += p.Seconds
		}
	}
	return s
}

// FinalizeCompute derives CommSeconds from the Comm entries and
// ComputeSeconds as the top-level phase total minus CommSeconds (clamped at
// zero: a rank that spends its whole run blocked in collectives has no
// compute to report).
func (r *RankPerf) FinalizeCompute() {
	comm := 0.0
	for _, c := range r.Comm {
		comm += c.Seconds
	}
	r.CommSeconds = comm
	compute := r.TopLevelSeconds() - comm
	if compute < 0 {
		compute = 0
	}
	r.ComputeSeconds = compute
}

// NewPerfReport assembles the final artifact, sorting ranks for
// deterministic output.
func NewPerfReport(name string, wallSeconds float64, ranks []RankPerf) *PerfReport {
	sorted := append([]RankPerf(nil), ranks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Rank < sorted[j].Rank })
	return &PerfReport{
		Schema:      SchemaVersion,
		Name:        name,
		WallSeconds: wallSeconds,
		Ranks:       sorted,
	}
}

// WriteJSON emits the report as indented JSON.
func (p *PerfReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// ParsePerfReport decodes and schema-checks a report: only the current
// SchemaVersion is accepted.
func ParsePerfReport(data []byte) (*PerfReport, error) {
	var p PerfReport
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("trace: parsing perf report: %w", err)
	}
	if p.Schema != SchemaVersion {
		return nil, fmt.Errorf("trace: perf report schema %q, want %q", p.Schema, SchemaVersion)
	}
	return &p, nil
}
