// Event-timeline recording: a bounded, low-overhead per-rank event stream
// on top of the aggregate spans/counters of Tracer. Where the Tracer answers
// "how much total time went into selection?", the Recorder answers "what did
// rank 3 do between t=1.2s and t=1.3s, and who was it waiting on?" — the
// raw material for the Chrome-trace export (chrome.go) and the merged
// timeline analysis (analysis.go) that reproduce the per-rank attribution
// the paper's companion works use to diagnose load imbalance and barrier
// serialization.
//
// Design rules mirror Tracer: a nil *Recorder is the canonical disabled
// recorder (every method is a nil-check no-op, no allocation, no time
// syscall), and an enabled recorder is a fixed-capacity ring buffer so a
// long run can never grow memory without bound — overflow evicts the oldest
// events and counts them in Dropped.
package trace

import (
	"sync"
	"time"
)

// EventKind discriminates timeline events.
type EventKind uint8

const (
	// EvBegin opens a phase span on the rank's track (paired with EvEnd).
	EvBegin EventKind = iota
	// EvEnd closes the innermost matching EvBegin.
	EvEnd
	// EvComm is one completed communication call (send/recv/collective/RMA)
	// with peer, tag, byte, duration and wait attribution.
	EvComm
	// EvInstant is a point event (injected fault, dropped bootstrap).
	EvInstant
)

// String returns the kind name.
func (k EventKind) String() string {
	switch k {
	case EvBegin:
		return "begin"
	case EvEnd:
		return "end"
	case EvComm:
		return "comm"
	case EvInstant:
		return "instant"
	}
	return "unknown"
}

// Event is one timeline entry. Timestamps are nanoseconds since the
// recorder's epoch; everything else is deterministic for a deterministic
// run, which is what the chaos replay test asserts (see Signature).
type Event struct {
	Kind EventKind
	// Name is the span/phase name (EvBegin/EvEnd), the communication call
	// ("send", "allreduce", "win/get", ...) for EvComm, or the fault/event
	// label for EvInstant.
	Name string
	// Cat is the communication category ("p2p", "collective", "one-sided")
	// for EvComm, or a free-form class ("fault") for EvInstant.
	Cat string
	// TS is the event start, nanoseconds since the recorder epoch.
	TS int64
	// Dur is the event duration in nanoseconds (EvComm; also carries the
	// injected latency of an EvInstant fault event).
	Dur int64
	// Wait is the portion of Dur spent blocked (barrier waits, a full
	// channel, an absent message) rather than transferring data.
	Wait int64
	// Peer is the world rank of the other endpoint (-1 when the call has no
	// single peer, e.g. collectives).
	Peer int32
	// Tag is the message tag (p2p only).
	Tag int32
	// Bytes is the payload size.
	Bytes int64
	// Flow is a nonzero deterministic ID linking a p2p send to its matching
	// recv (the Chrome-trace flow arrow); 0 = no flow.
	Flow uint64
	// FlowRecv marks the receiving end of a flow.
	FlowRecv bool
}

// Signature renders the deterministic part of the event — everything except
// the timestamps — for replay comparisons: two runs of the same seeded
// schedule must produce identical signature sequences per rank.
func (e Event) Signature() string {
	b := make([]byte, 0, 64)
	b = append(b, e.Kind.String()...)
	b = append(b, '|')
	b = append(b, e.Name...)
	b = append(b, '|')
	b = append(b, e.Cat...)
	b = append(b, '|')
	b = appendInt(b, int64(e.Peer))
	b = append(b, '|')
	b = appendInt(b, int64(e.Tag))
	b = append(b, '|')
	b = appendInt(b, e.Bytes)
	b = append(b, '|')
	b = appendInt(b, int64(e.Flow))
	if e.FlowRecv {
		b = append(b, "|recv"...)
	}
	return string(b)
}

func appendInt(b []byte, v int64) []byte {
	if v < 0 {
		b = append(b, '-')
		v = -v
	}
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return append(b, tmp[i:]...)
}

// DefaultEventCapacity bounds a recorder's ring buffer when NewRecorder is
// given no explicit capacity. At ~96 bytes per event this is ≈6 MiB per
// rank, enough for every event of the test-scale fits and a bounded window
// of the largest ones.
const DefaultEventCapacity = 1 << 16

// Recorder is a bounded per-rank event timeline. A nil *Recorder is the
// canonical disabled recorder: every method no-ops at nil-check cost. An
// enabled Recorder is safe for concurrent use, though a rank's event order
// is only meaningful when the rank's own goroutine emits its events (the
// mpi runtime's background helpers deliberately do not record).
type Recorder struct {
	mu      sync.Mutex
	rank    int
	epoch   time.Time
	buf     []Event
	head    int // index of the oldest event
	n       int // number of live events
	dropped int64
	open    []string // stack of open span names (CurrentPhase)
}

// NewRecorder returns an enabled recorder for the given rank. capacity ≤ 0
// selects DefaultEventCapacity. The epoch is set to now; use NewRecorderSet
// to give the ranks of one run a shared epoch so their timelines align.
func NewRecorder(rank, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultEventCapacity
	}
	return &Recorder{rank: rank, epoch: time.Now(), buf: make([]Event, capacity)}
}

// NewRecorderSet returns one recorder per rank, all sharing a single epoch —
// the per-run constructor used by the trace collectors, so cross-rank
// timestamps are directly comparable.
func NewRecorderSet(ranks, capacity int) []*Recorder {
	epoch := time.Now()
	out := make([]*Recorder, ranks)
	for r := range out {
		out[r] = NewRecorder(r, capacity)
		out[r].epoch = epoch
	}
	return out
}

// Rank returns the rank this recorder belongs to (0 for nil).
func (r *Recorder) Rank() int {
	if r == nil {
		return 0
	}
	return r.rank
}

// push appends an event, evicting the oldest when full. Caller holds r.mu.
func (r *Recorder) push(e Event) {
	if r.n < len(r.buf) {
		r.buf[(r.head+r.n)%len(r.buf)] = e
		r.n++
		return
	}
	r.buf[r.head] = e
	r.head = (r.head + 1) % len(r.buf)
	r.dropped++
}

// Begin opens a span named name on the rank's track.
func (r *Recorder) Begin(name string) {
	if r == nil {
		return
	}
	ts := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.push(Event{Kind: EvBegin, Name: name, TS: ts, Peer: -1})
	r.open = append(r.open, name)
	r.mu.Unlock()
}

// End closes the innermost open span with the given name.
func (r *Recorder) End(name string) {
	if r == nil {
		return
	}
	ts := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.push(Event{Kind: EvEnd, Name: name, TS: ts, Peer: -1})
	for i := len(r.open) - 1; i >= 0; i-- {
		if r.open[i] == name {
			r.open = append(r.open[:i], r.open[i+1:]...)
			break
		}
	}
	r.mu.Unlock()
}

// Instant records a point event (an injected fault, a dropped bootstrap).
// dur optionally carries an associated duration (e.g. the injected latency).
func (r *Recorder) Instant(name, cat string, dur time.Duration) {
	if r == nil {
		return
	}
	ts := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.push(Event{Kind: EvInstant, Name: name, Cat: cat, TS: ts, Dur: dur.Nanoseconds(), Peer: -1})
	r.mu.Unlock()
}

// Comm records one completed communication call. start is the call entry
// time, wait the blocked portion, peer the world rank of the other endpoint
// (-1 for collectives), and flow a nonzero deterministic ID linking the two
// ends of a p2p message (flowRecv marks the receiving side).
func (r *Recorder) Comm(name, cat string, peer, tag int, bytes int64, start time.Time, wait time.Duration, flow uint64, flowRecv bool) {
	if r == nil {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.push(Event{
		Kind:     EvComm,
		Name:     name,
		Cat:      cat,
		TS:       start.Sub(r.epoch).Nanoseconds(),
		Dur:      now.Sub(start).Nanoseconds(),
		Wait:     wait.Nanoseconds(),
		Peer:     int32(peer),
		Tag:      int32(tag),
		Bytes:    bytes,
		Flow:     flow,
		FlowRecv: flowRecv,
	})
	r.mu.Unlock()
}

// Events returns a chronological copy of the buffered events.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	return out
}

// Len returns the number of buffered events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Dropped returns how many events were evicted by ring-buffer overflow.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// CurrentPhase returns the innermost open span name ("" when idle) — the
// live "what is this rank doing right now" probe behind the debug endpoint.
func (r *Recorder) CurrentPhase() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.open) == 0 {
		return ""
	}
	return r.open[len(r.open)-1]
}
