// Package mpi is an in-process message-passing runtime that stands in for
// MPI in the paper's implementation. Ranks are goroutines; the package
// provides the primitives the UoI codes use: point-to-point Send/Recv,
// Bcast, Allreduce, Allgather, Barrier, communicator Split (for the P_B ×
// P_λ process grids), and one-sided windows (Put/Get between Fences) used
// by the randomized data distribution and the distributed Kronecker product.
// As in the paper's MPI program, a collective's algorithm is the runtime's
// business: callers name the operation, not a tree or a ring.
//
// The transport is shared memory, but the communication *structure* — who
// sends what to whom, how many times, and how many bytes — is identical to
// the MPI program's, and every call is metered per rank and per category so
// experiments can report communication/distribution breakdowns the way the
// paper does (MPI_Allreduce dominating communication, one-sided traffic
// counted as "Distribution").
//
// The runtime is fault-tolerant: every blocking call carries a deadline
// (RunOptions.CollectiveTimeout), a rank that fails — by returning an
// error, panicking, or being crashed by an injected fault — breaks every
// barrier so surviving ranks unwind promptly with ErrRankFailed instead of
// deadlocking. Deterministic fault schedules plug in through
// RunOptions.Fault (see internal/fault).
package mpi

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"uoivar/internal/trace"
)

// Op is a reduction operator for Allreduce/Reduce.
type Op int

const (
	// OpSum adds elementwise.
	OpSum Op = iota
	// OpMax takes the elementwise maximum.
	OpMax
	// OpMin takes the elementwise minimum.
	OpMin
)

func (o Op) apply(dst, src []float64) {
	switch o {
	case OpSum:
		for i, v := range src {
			dst[i] += v
		}
	case OpMax:
		for i, v := range src {
			if v > dst[i] {
				dst[i] = v
			}
		}
	case OpMin:
		for i, v := range src {
			if v < dst[i] {
				dst[i] = v
			}
		}
	default:
		panic(fmt.Sprintf("mpi: unknown op %d", o))
	}
}

// Category labels metered traffic, mirroring the paper's runtime breakdown
// bars (Figure 2/7): collective communication vs one-sided distribution.
type Category int

const (
	// CatP2P covers Send/Recv.
	CatP2P Category = iota
	// CatCollective covers Bcast/Allreduce/Allgather/Barrier/Split.
	CatCollective
	// CatOneSided covers window Put/Get ("Distribution" in the paper).
	CatOneSided
	numCategories
)

// String returns the category name.
func (c Category) String() string {
	switch c {
	case CatP2P:
		return "p2p"
	case CatCollective:
		return "collective"
	case CatOneSided:
		return "one-sided"
	}
	return "unknown"
}

// RankState is a rank's health, tracked per rank in Stats.
type RankState int32

const (
	// RankRunning means the rank's body has not returned yet.
	RankRunning RankState = iota
	// RankDone means the body returned nil.
	RankDone
	// RankFailed means the body returned an error, panicked, or was crashed
	// by an injected fault.
	RankFailed
)

// String returns the state name.
func (s RankState) String() string {
	switch s {
	case RankRunning:
		return "running"
	case RankDone:
		return "done"
	case RankFailed:
		return "failed"
	}
	return "unknown"
}

// Stats accumulates per-rank communication counters and health.
//
// Bytes counts payload bytes per call: a Send and a Recv each charge their
// message to the rank that makes the call, a collective charges each rank
// the slice it receives (the reduced vector, the gathered concatenation),
// and a one-sided Put or Get charges the origin the bytes it moves.
type Stats struct {
	// Calls counts completed communication calls per category.
	Calls [numCategories]int64
	// Bytes counts payload bytes per category (see the type comment).
	Bytes [numCategories]int64
	// Time is total wall time spent inside communication calls.
	Time [numCategories]time.Duration
	// Wait is the portion of Time spent blocked — barrier waits, full
	// channels, absent messages — rather than transferring data.
	Wait [numCategories]time.Duration
	// Health is this rank's state (for merged stats, the worst state seen).
	Health RankState
}

// Total returns summed calls, bytes and time across categories.
func (s *Stats) Total() (calls, bytes int64, d time.Duration) {
	for c := 0; c < int(numCategories); c++ {
		calls += s.Calls[c]
		bytes += s.Bytes[c]
		d += s.Time[c]
	}
	return
}

// add merges o into s.
func (s *Stats) add(o *Stats) {
	for c := 0; c < int(numCategories); c++ {
		s.record(Category(c), o.Calls[c], o.Bytes[c], o.Time[c], o.Wait[c])
	}
	if o.Health > s.Health {
		s.Health = o.Health
	}
}

// record adds one metered step to category cat.
func (s *Stats) record(cat Category, calls, bytes int64, elapsed, wait time.Duration) {
	s.Calls[cat] += calls
	s.Bytes[cat] += bytes
	s.Time[cat] += elapsed
	s.Wait[cat] += wait
}

// Rows renders s as PerfReport communication rows: one per category with
// calls, in category order, each named by its category plus suffix (the
// "[row]" of a labeled communicator's breakdown). Every report of the
// meters — PerfReport, /debug/uoivar, /metrics — renders these rows.
func (s *Stats) Rows(suffix string) []trace.CommStat {
	var out []trace.CommStat
	for c := Category(0); c < numCategories; c++ {
		if s.Calls[c] == 0 {
			continue
		}
		out = append(out, trace.CommStat{
			Category: c.String() + suffix, Calls: s.Calls[c], Bytes: s.Bytes[c],
			Seconds: s.Time[c].Seconds(), WaitSeconds: s.Wait[c].Seconds(),
		})
	}
	return out
}

const bytesPerFloat = 8

// pairSide is one endpoint's accounting of a communication-matrix cell.
type pairSide struct {
	calls, bytes int64
	time         time.Duration
}

// pairCell is one src→dst×category cell of the communication matrix. The
// send side is recorded by the sending rank, the recv side by the receiving
// rank; for one-sided (RMA) transfers the origin records both sides, since
// the target is passive.
type pairCell struct{ send, recv pairSide }

// PairFlow is one nonzero cell of the per-pair communication matrix: all
// traffic from Src to Dst in one category, with both endpoints' accounting.
type PairFlow struct {
	// Src and Dst are the world ranks of the cell's sender and receiver.
	Src, Dst int
	// Category classifies the traffic (p2p, collective, one-sided).
	Category Category
	// SendCalls, SendBytes, and SendTime are the sender side's accounting:
	// operations initiated, payload bytes shipped, and time inside them.
	SendCalls int64
	SendBytes int64         // payload bytes shipped by Src (see SendCalls)
	SendTime  time.Duration // sender time inside the operations (see SendCalls)
	// RecvCalls, RecvBytes, and RecvTime are the receiver side's
	// accounting; per cell, RecvBytes equals SendBytes (conservation).
	RecvCalls int64
	RecvBytes int64         // payload bytes received by Dst (see RecvCalls)
	RecvTime  time.Duration // receiver time inside the operations (see RecvCalls)
}

// pairIndex flattens (src, dst, cat) into the world's pairs slice.
func (w *World) pairIndex(src, dst int, cat Category) int {
	return (src*w.size+dst)*int(numCategories) + int(cat)
}

// flow names the communication-matrix cell a metered step updates: the
// src→dst traffic (world ranks), of which this rank records the send side,
// the recv side, or — as an RMA origin — both. The zero flow updates no
// cell.
type flow struct {
	src, dst   int
	send, recv bool
}

// procStats optionally aggregates every world's per-rank meters
// process-wide, across all Run invocations — the hook cmd/experiments uses
// to report per-rank communication rows even though it launches many
// worlds internally. Disabled (one atomic load per meter call) by default.
var procStats struct {
	enabled atomic.Bool
	mu      sync.Mutex
	ranks   []Stats
}

// EnableProcessStats turns process-wide per-rank aggregation on or off.
func EnableProcessStats(on bool) { procStats.enabled.Store(on) }

// ResetProcessStats clears the process-wide aggregate.
func ResetProcessStats() {
	procStats.mu.Lock()
	procStats.ranks = nil
	procStats.mu.Unlock()
}

// ProcessStats returns the process-wide per-world-rank aggregate collected
// since the last reset (world rank r of every Run folds into entry r).
func ProcessStats() []Stats {
	procStats.mu.Lock()
	defer procStats.mu.Unlock()
	out := make([]Stats, len(procStats.ranks))
	copy(out, procStats.ranks)
	return out
}

// FaultInjector is consulted at the start of every communication operation
// of a rank. It returns a latency to inject (0 = none) and, when the rank is
// scheduled to die at this operation, a non-nil crash error. The injector is
// called concurrently from all rank goroutines. internal/fault's Plan
// implements this interface.
type FaultInjector interface {
	// CommOp records one communication operation by worldRank and returns
	// the latency to inject before it (0 = none) plus a non-nil crash error
	// when the rank is scheduled to die at this operation.
	CommOp(worldRank int) (delay time.Duration, crash error)
}

// DefaultCollectiveTimeout bounds blocking communication calls when
// RunOptions does not override it. It is deliberately generous: it exists to
// convert programming errors and dead ranks into typed failures, not to
// police slow computation between collectives.
const DefaultCollectiveTimeout = 2 * time.Minute

// RunOptions configures fault tolerance and observability for
// RunWithOptions.
type RunOptions struct {
	// CollectiveTimeout is the deadline for every blocking communication
	// call (barriers, collectives, Send/Recv). A rank that waits longer
	// fails with ErrTimeout and the world unwinds. 0 selects
	// DefaultCollectiveTimeout; negative disables the deadline.
	CollectiveTimeout time.Duration
	// Fault injects deterministic faults (nil = none).
	Fault FaultInjector
	// Recorders, indexed by world rank, attach per-rank event timelines:
	// every communication call of rank r (with peer, tag, bytes, and
	// wait-vs-transfer attribution), plus injected-fault instants, is
	// recorded onto Recorders[r]. The slice may be nil, short, or carry nil
	// entries — unlisted ranks simply record nothing. A rank's event
	// sequence is a pure function of its own call sequence and replays
	// deterministically under a seeded fault plan.
	Recorders []*trace.Recorder
}

// World owns the shared state for one Run invocation.
type World struct {
	size    int
	opts    RunOptions
	chans   sync.Map // chanKey -> chan []float64
	commSeq atomic.Int64
	// registry shares transient objects between ranks (Split group handoff).
	registry sync.Map
	stats    []Stats // indexed by world rank
	// pairs is the R×R×category communication matrix, flat-indexed by
	// pairIndex and guarded by statsMu alongside stats.
	pairs []pairCell
	// labeled accumulates per-(rank, communicator-label) counters for comms
	// tagged with WithLabel; guarded by statsMu.
	labeled map[labelKey]*Stats
	statsMu sync.Mutex

	// eventsOn is true when any rank has an event recorder; it gates the
	// (tiny) bookkeeping for flow IDs so recorder-free runs pay nothing.
	eventsOn bool
	// flowSend/flowRecv sequence p2p messages per (comm, src, dst, tag)
	// channel for deterministic flow IDs; FIFO channels guarantee the nth
	// send matches the nth recv.
	flowSend sync.Map // chanKey -> *atomic.Int64
	flowRecv sync.Map

	// groups lists every communicator group ever created so a failure can
	// break all barriers.
	groupsMu sync.Mutex
	groups   []*group
	// failCh is closed (once) when any rank fails or aborts; failCause is
	// written before the close and read only after it.
	failCh     chan struct{}
	failChOnce sync.Once
	failCause  error
	health     []atomic.Int32 // RankState per world rank
}

type chanKey struct {
	comm     int64
	src, dst int
	tag      int
}

// ErrRankFailed is the typed error surviving ranks observe when another
// rank dies (body error, panic, or injected crash): their blocking calls
// unwind with an error wrapping ErrRankFailed instead of hanging forever.
var ErrRankFailed = errors.New("mpi: rank failed")

// ErrTimeout is the typed error a blocking communication call returns when
// its deadline expires (a straggler that never arrives, or an SPMD bug that
// leaves ranks in mismatched collectives).
var ErrTimeout = errors.New("mpi: collective timeout")

// commFailure carries a communication-layer error up a rank's stack. The
// collectives keep their error-free MPI-like signatures; a failed call
// panics with commFailure and Run's recovery converts it into the rank's
// returned error, preserving errors.Is/As chains.
type commFailure struct{ err error }

// Run launches size ranks, each executing body with its own Comm, and waits
// for all of them. Equivalent to RunWithOptions with default options.
func Run(size int, body func(c *Comm) error) error {
	return RunWithOptions(size, RunOptions{}, body)
}

// RunWithOptions launches size ranks with explicit fault-tolerance options
// and waits for all of them. All rank errors are aggregated with
// errors.Join; a failing rank breaks every
// barrier so surviving ranks fail fast with ErrRankFailed rather than
// deadlock, and every blocking call is bounded by opts.CollectiveTimeout.
func RunWithOptions(size int, opts RunOptions, body func(c *Comm) error) error {
	if size <= 0 {
		return fmt.Errorf("mpi: invalid world size %d", size)
	}
	if opts.CollectiveTimeout == 0 {
		opts.CollectiveTimeout = DefaultCollectiveTimeout
	}
	w := &World{
		size:    size,
		opts:    opts,
		stats:   make([]Stats, size),
		pairs:   make([]pairCell, size*size*int(numCategories)),
		labeled: map[labelKey]*Stats{},
		failCh:  make(chan struct{}),
		health:  make([]atomic.Int32, size),
	}
	for _, r := range opts.Recorders {
		if r != nil {
			w.eventsOn = true
			break
		}
	}
	members := make([]int, size)
	for i := range members {
		members[i] = i
	}
	g := w.newGroup(members)
	var wg sync.WaitGroup
	errs := make([]error, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					if cf, ok := p.(commFailure); ok {
						errs[rank] = cf.err
					} else {
						errs[rank] = fmt.Errorf("mpi: rank %d panicked: %v", rank, p)
					}
				}
				w.rankExited(rank, errs[rank])
			}()
			errs[rank] = body(&Comm{world: w, group: g, rank: rank, worldRank: rank})
		}(r)
	}
	wg.Wait()
	// Aggregate rank errors in rank order, de-duplicated by message — when
	// one rank dies, every survivor reports the same ErrRankFailed cause and
	// joining N-1 copies would bury the interesting error.
	var all []error
	seen := map[string]bool{}
	for _, err := range errs {
		if err != nil && !seen[err.Error()] {
			seen[err.Error()] = true
			all = append(all, err)
		}
	}
	return errors.Join(all...)
}

// rankExited records the rank's final health and, on failure, tears the
// world down so no surviving rank blocks forever.
func (w *World) rankExited(rank int, err error) {
	st := RankDone
	if err != nil {
		st = RankFailed
	}
	w.health[rank].Store(int32(st))
	w.statsMu.Lock()
	w.stats[rank].Health = st
	w.statsMu.Unlock()
	if err != nil {
		w.fail(fmt.Errorf("%w: rank %d: %v", ErrRankFailed, rank, err))
	}
}

// fail records the first failure cause and breaks every barrier (once).
func (w *World) fail(cause error) {
	w.failChOnce.Do(func() {
		w.failCause = cause
		close(w.failCh)
	})
	w.groupsMu.Lock()
	gs := append([]*group(nil), w.groups...)
	w.groupsMu.Unlock()
	for _, g := range gs {
		g.bar.brk(w.failCause)
	}
}

// failed reports the failure cause if the world has failed, else nil.
func (w *World) failed() error {
	select {
	case <-w.failCh:
		return w.failCause
	default:
		return nil
	}
}

// group is a communicator's shared collective context.
type group struct {
	id      int64
	members []int // world ranks, ordered by comm rank
	bar     *cyclicBarrier
	mu      sync.Mutex
	slots   [][]float64 // deposit area for collectives, indexed by comm rank
	result  []float64
}

func (w *World) newGroup(members []int) *group {
	g := &group{
		id:      w.commSeq.Add(1),
		members: members,
		bar:     newCyclicBarrier(len(members)),
		slots:   make([][]float64, len(members)),
	}
	w.groupsMu.Lock()
	w.groups = append(w.groups, g)
	w.groupsMu.Unlock()
	// A group created after the world already failed must be born broken,
	// or ranks entering it would wait out the full timeout.
	if cause := w.failed(); cause != nil {
		g.bar.brk(cause)
	}
	return g
}

// labelKey indexes the per-(rank, communicator-label) counter map.
type labelKey struct {
	rank  int
	label string
}

// Comm is one rank's handle on a communicator.
type Comm struct {
	world     *World
	group     *group
	rank      int // rank within this communicator
	worldRank int // rank within the original world
	// label, when non-empty, attributes this handle's traffic to a named
	// communicator ("row", "world") in the per-label stats and on
	// event timelines. Set with WithLabel.
	label string
}

// Rank returns this rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group.members) }

// WorldRank returns the rank in the original Run world.
func (c *Comm) WorldRank() int { return c.worldRank }

// WithLabel returns a handle on the same communicator whose traffic is
// additionally attributed to the named communicator: aggregate counters per
// (rank, label) — readable via LocalLabelStats — and a "@label" suffix on
// timeline event names, so a 2-D grid run can tell row-communicator bytes
// from column-communicator bytes. The underlying group, rank, and metering
// into the world totals are unchanged.
func (c *Comm) WithLabel(label string) *Comm {
	cp := *c
	cp.label = label
	return &cp
}

// LocalLabelStats returns this rank's per-communicator-label counters: a
// copy of the Stats accumulated by every labeled Comm handle of this rank
// (see WithLabel). Unlabeled traffic is not included; it remains visible in
// LocalStats, which always covers everything.
func (c *Comm) LocalLabelStats() map[string]Stats {
	w := c.world
	w.statsMu.Lock()
	defer w.statsMu.Unlock()
	out := map[string]Stats{}
	for k, s := range w.labeled {
		if k.rank == c.worldRank {
			out[k.label] = *s
		}
	}
	return out
}

// evName suffixes a timeline event name with the communicator label.
func (c *Comm) evName(base string) string {
	if c.label == "" {
		return base
	}
	return base + "@" + c.label
}

// Health returns a snapshot of every world rank's state.
func (c *Comm) Health() []RankState {
	out := make([]RankState, len(c.world.health))
	for i := range c.world.health {
		out[i] = RankState(c.world.health[i].Load())
	}
	return out
}

// recorder returns this rank's event recorder (nil when none is attached).
func (c *Comm) recorder() *trace.Recorder {
	rs := c.world.opts.Recorders
	if c.worldRank < len(rs) {
		return rs[c.worldRank]
	}
	return nil
}

// faultPoint consults the fault injector at the start of a communication
// operation: it sleeps injected latency and dies on an injected crash.
// Injected faults are surfaced on the rank's event timeline as instants.
func (c *Comm) faultPoint() {
	f := c.world.opts.Fault
	if f == nil {
		return
	}
	delay, crash := f.CommOp(c.worldRank)
	if delay > 0 {
		c.recorder().Instant("fault/delay", "fault", delay)
		time.Sleep(delay)
	}
	if crash != nil {
		c.recorder().Instant("fault/crash", "fault", 0)
		panic(commFailure{crash})
	}
}

// sync awaits the group barrier, converting a broken barrier or deadline
// expiry into a rank failure.
func (c *Comm) sync() {
	if err := c.group.bar.await(c.world.opts.CollectiveTimeout); err != nil {
		panic(commFailure{err})
	}
}

// syncW is sync with barrier-wait accounting: the time spent inside the
// barrier is accumulated into *wait so the call can attribute
// wait-vs-transfer, both on its timeline event and in Stats.Wait.
func (c *Comm) syncW(wait *time.Duration) {
	t0 := time.Now()
	c.sync()
	*wait += time.Since(t0)
}

// meter records one completed call of this rank under one statsMu
// acquisition: its floats go to the rank's Stats, its label's and the pair
// cell f names, and wait to Stats.Wait. The process-wide aggregate, when
// enabled, gets the same record.
func (c *Comm) meter(cat Category, floats int, start time.Time, wait time.Duration, f flow) {
	elapsed := time.Since(start)
	bytes := int64(floats * bytesPerFloat)
	w := c.world
	w.statsMu.Lock()
	w.stats[c.worldRank].record(cat, 1, bytes, elapsed, wait)
	if c.label != "" {
		k := labelKey{rank: c.worldRank, label: c.label}
		ls := w.labeled[k]
		if ls == nil {
			ls = &Stats{}
			w.labeled[k] = ls
		}
		ls.record(cat, 1, bytes, elapsed, wait)
	}
	if f.send || f.recv {
		side := pairSide{calls: 1, bytes: bytes, time: elapsed}
		cell := &w.pairs[w.pairIndex(f.src, f.dst, cat)]
		if f.send {
			cell.send.add(side)
		}
		if f.recv {
			cell.recv.add(side)
		}
	}
	w.statsMu.Unlock()
	if procStats.enabled.Load() {
		procStats.mu.Lock()
		for len(procStats.ranks) <= c.worldRank {
			procStats.ranks = append(procStats.ranks, Stats{})
		}
		procStats.ranks[c.worldRank].record(cat, 1, bytes, elapsed, wait)
		procStats.mu.Unlock()
	}
}

// add merges o into p.
func (p *pairSide) add(o pairSide) {
	p.calls += o.calls
	p.bytes += o.bytes
	p.time += o.time
}

// LocalStats returns a copy of this rank's counters.
func (c *Comm) LocalStats() Stats {
	c.world.statsMu.Lock()
	defer c.world.statsMu.Unlock()
	return c.world.stats[c.worldRank]
}

// GlobalStats returns counters summed over all world ranks. The snapshot is
// taken atomically under the stats lock, so it is internally consistent and
// safe to call at any time, from any goroutine — including concurrently
// with ranks mid-communication (a call's counters appear in one piece when
// the call completes, never partially). The live debug endpoint polls this
// while a fit is running.
func (c *Comm) GlobalStats() Stats {
	c.world.statsMu.Lock()
	defer c.world.statsMu.Unlock()
	var out Stats
	for i := range c.world.stats {
		out.add(&c.world.stats[i])
	}
	return out
}

// AllStats returns a copy of every world rank's counters, indexed by world
// rank. Like GlobalStats the snapshot is taken under the stats lock and is
// safe mid-run; the live debug endpoint uses it for per-rank comm rows.
func (c *Comm) AllStats() []Stats {
	c.world.statsMu.Lock()
	defer c.world.statsMu.Unlock()
	out := make([]Stats, len(c.world.stats))
	copy(out, c.world.stats)
	return out
}

// CommMatrix returns the nonzero cells of the world's per-pair
// communication matrix (src→dst traffic per category), sorted by (src, dst,
// category). Like GlobalStats, the snapshot is taken under the stats lock
// and is safe to call mid-run. Send fields are the sender's accounting,
// recv fields the receiver's; RMA transfers are recorded entirely by the
// origin rank, so both sides of a one-sided cell agree by construction and
// p2p bytes satisfy the conservation law Σ_src send = Σ_dst recv once all
// in-flight messages have been received.
func (c *Comm) CommMatrix() []PairFlow {
	w := c.world
	w.statsMu.Lock()
	defer w.statsMu.Unlock()
	var out []PairFlow
	for src := 0; src < w.size; src++ {
		for dst := 0; dst < w.size; dst++ {
			for cat := Category(0); cat < numCategories; cat++ {
				cell := &w.pairs[w.pairIndex(src, dst, cat)]
				if cell.send.calls == 0 && cell.recv.calls == 0 {
					continue
				}
				out = append(out, PairFlow{
					Src: src, Dst: dst, Category: cat,
					SendCalls: cell.send.calls, SendBytes: cell.send.bytes, SendTime: cell.send.time,
					RecvCalls: cell.recv.calls, RecvBytes: cell.recv.bytes, RecvTime: cell.recv.time,
				})
			}
		}
	}
	return out
}

// channel returns the (lazily created) channel for (comm, src→dst, tag).
func (c *Comm) channel(src, dst, tag int) chan []float64 {
	key := chanKey{comm: c.group.id, src: src, dst: dst, tag: tag}
	if v, ok := c.world.chans.Load(key); ok {
		return v.(chan []float64)
	}
	v, _ := c.world.chans.LoadOrStore(key, make(chan []float64, 16))
	return v.(chan []float64)
}

// flowHash derives a deterministic 64-bit flow ID (FNV-1a over the parts);
// never returns 0 (the "no flow" sentinel).
func flowHash(parts ...uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, p := range parts {
		for i := 0; i < 8; i++ {
			h ^= p & 0xff
			h *= 1099511628211
			p >>= 8
		}
	}
	if h == 0 {
		h = 1
	}
	return h
}

// flowID sequences the (comm, src, dst, tag) channel and hashes the
// sequence number into the channel identity: because channels are FIFO, the
// nth wrapped Send on a channel matches the nth wrapped Recv, so both ends
// compute the same ID without any side-channel. Only called when events are
// on.
func (w *World) flowID(key chanKey, send bool) uint64 {
	m := &w.flowRecv
	if send {
		m = &w.flowSend
	}
	v, ok := m.Load(key)
	if !ok {
		v, _ = m.LoadOrStore(key, new(atomic.Int64))
	}
	seq := v.(*atomic.Int64).Add(1)
	return flowHash(uint64(key.comm), uint64(key.src)+1, uint64(key.dst)+1, uint64(int64(key.tag))+1, uint64(seq))
}

// commEvent records a completed peerless (collective/RMA-epoch) call on the
// rank's event timeline, when a recorder is attached, under the
// label-suffixed name (see WithLabel).
func (c *Comm) commEvent(name string, cat Category, floats int, start time.Time, wait time.Duration) {
	if r := c.recorder(); r != nil {
		r.Comm(c.evName(name), cat.String(), -1, 0, int64(floats*bytesPerFloat), start, wait, 0, false)
	}
}

// Send transmits a copy of data to rank dst with the given tag.
func (c *Comm) Send(dst, tag int, data []float64) {
	start := time.Now()
	c.faultPoint()
	var id uint64
	if c.world.eventsOn {
		id = c.world.flowID(chanKey{comm: c.group.id, src: c.rank, dst: dst, tag: tag}, true)
	}
	wait := c.sendMsg(dst, tag, data)
	if r := c.recorder(); r != nil {
		r.Comm(c.evName("send"), CatP2P.String(), c.group.members[dst], tag,
			int64(len(data)*bytesPerFloat), start, wait, id, false)
	}
}

// sendMsg is the transport of a Send: it puts a copy of data on the
// channel to comm rank dst, meters the message as one call charging its
// payload and blocked time to this rank, and returns the time spent blocked
// on a full channel.
func (c *Comm) sendMsg(dst, tag int, data []float64) (wait time.Duration) {
	start := time.Now()
	c.checkRank(dst)
	buf := make([]float64, len(data))
	copy(buf, data)
	ch := c.channel(c.rank, dst, tag)
	select {
	case ch <- buf:
	default:
		// Channel full: block with deadline and failure wakeup.
		t0 := time.Now()
		timer := c.deadline()
		select {
		case ch <- buf:
		case <-c.world.failCh:
			panic(commFailure{c.world.failCause})
		case <-timer:
			panic(commFailure{fmt.Errorf("%w: p2p send to rank %d (tag %d) after %v", ErrTimeout, dst, tag, c.world.opts.CollectiveTimeout)})
		}
		wait = time.Since(t0)
	}
	c.meter(CatP2P, len(data), start, wait, flow{src: c.worldRank, dst: c.group.members[dst], send: true})
	return wait
}

// Recv blocks until a message with the given tag arrives from src and
// returns its payload. If the world fails or the deadline expires first,
// the call unwinds with ErrRankFailed/ErrTimeout.
func (c *Comm) Recv(src, tag int) []float64 {
	start := time.Now()
	c.faultPoint()
	var id uint64
	if c.world.eventsOn {
		id = c.world.flowID(chanKey{comm: c.group.id, src: src, dst: c.rank, tag: tag}, false)
	}
	data, wait := c.recvMsg(src, tag)
	if r := c.recorder(); r != nil {
		r.Comm(c.evName("recv"), CatP2P.String(), c.group.members[src], tag,
			int64(len(data)*bytesPerFloat), start, wait, id, true)
	}
	return data
}

// recvMsg is the transport of a Recv (see sendMsg): it returns the payload
// from comm rank src and the time spent blocked waiting for it, and meters
// both to this rank.
func (c *Comm) recvMsg(src, tag int) ([]float64, time.Duration) {
	start := time.Now()
	c.checkRank(src)
	ch := c.channel(src, c.rank, tag)
	var data []float64
	var wait time.Duration
	select {
	case data = <-ch:
	default:
		t0 := time.Now()
		timer := c.deadline()
		select {
		case data = <-ch:
		case <-c.world.failCh:
			// Prefer data already in flight over the failure, so a
			// completed exchange is never reported as failed.
			select {
			case data = <-ch:
			default:
				panic(commFailure{c.world.failCause})
			}
		case <-timer:
			panic(commFailure{fmt.Errorf("%w: p2p recv from rank %d (tag %d) after %v", ErrTimeout, src, tag, c.world.opts.CollectiveTimeout)})
		}
		wait = time.Since(t0)
	}
	c.meter(CatP2P, len(data), start, wait, flow{src: c.group.members[src], dst: c.worldRank, recv: true})
	return data, wait
}

// deadline returns a timer channel for the collective timeout (nil — which
// blocks forever — when the deadline is disabled).
func (c *Comm) deadline() <-chan time.Time {
	if c.world.opts.CollectiveTimeout <= 0 {
		return nil
	}
	return time.After(c.world.opts.CollectiveTimeout)
}

func (c *Comm) checkRank(r int) {
	if r < 0 || r >= c.Size() {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", r, c.Size()))
	}
}

// Barrier blocks until all ranks in the communicator reach it (or fails
// with ErrRankFailed/ErrTimeout when the world dies or the deadline passes).
func (c *Comm) Barrier() {
	start := time.Now()
	c.faultPoint()
	var wait time.Duration
	c.syncW(&wait)
	c.meter(CatCollective, 0, start, wait, flow{})
	c.commEvent("barrier", CatCollective, 0, start, wait)
}

// Bcast copies root's data into every rank's data slice (lengths must match
// across ranks, as in MPI).
func (c *Comm) Bcast(root int, data []float64) {
	start := time.Now()
	c.faultPoint()
	c.checkRank(root)
	g := c.group
	if c.rank == root {
		g.mu.Lock()
		g.result = data
		g.mu.Unlock()
	}
	var wait time.Duration
	c.syncW(&wait)
	if c.rank != root {
		g.mu.Lock()
		src := g.result
		g.mu.Unlock()
		if len(src) != len(data) {
			panic("mpi: Bcast length mismatch")
		}
		copy(data, src)
	}
	c.syncW(&wait)
	c.meter(CatCollective, len(data), start, wait, flow{})
	c.commEvent("bcast", CatCollective, len(data), start, wait)
}

// Allreduce reduces data elementwise across ranks with op and leaves the
// result in every rank's data.
func (c *Comm) Allreduce(op Op, data []float64) {
	start := time.Now()
	c.faultPoint()
	g := c.group
	g.slots[c.rank] = data
	var wait time.Duration
	c.syncW(&wait)
	if c.rank == 0 {
		res := make([]float64, len(data))
		copy(res, g.slots[0])
		for r := 1; r < c.Size(); r++ {
			if len(g.slots[r]) != len(res) {
				panic("mpi: Allreduce length mismatch")
			}
			op.apply(res, g.slots[r])
		}
		g.mu.Lock()
		g.result = res
		g.mu.Unlock()
	}
	c.syncW(&wait)
	g.mu.Lock()
	res := g.result
	g.mu.Unlock()
	copy(data, res)
	c.syncW(&wait)
	c.meter(CatCollective, len(data), start, wait, flow{})
	c.commEvent("allreduce", CatCollective, len(data), start, wait)
}

// AllreduceScalar is Allreduce over a single value.
func (c *Comm) AllreduceScalar(op Op, v float64) float64 {
	buf := []float64{v}
	c.Allreduce(op, buf)
	return buf[0]
}

// Allgather concatenates equal-length contributions in rank order on every rank.
func (c *Comm) Allgather(data []float64) []float64 {
	start := time.Now()
	c.faultPoint()
	g := c.group
	g.slots[c.rank] = data
	var wait time.Duration
	c.syncW(&wait)
	out := make([]float64, 0, len(data)*c.Size())
	for r := 0; r < c.Size(); r++ {
		if len(g.slots[r]) != len(data) {
			panic("mpi: Allgather length mismatch")
		}
		out = append(out, g.slots[r]...)
	}
	c.syncW(&wait)
	n := len(data) * c.Size()
	c.meter(CatCollective, n, start, wait, flow{})
	c.commEvent("allgather", CatCollective, n, start, wait)
	return out
}

// Split partitions the communicator by color (ranks sharing a color form a
// new communicator, ordered by key then by current rank), mirroring
// MPI_Comm_split. The paper's P_B × P_λ parallelism is built from two Splits.
func (c *Comm) Split(color, key int) *Comm {
	g := c.group
	type entry struct{ color, key, rank, worldRank int }
	contrib := []float64{float64(color), float64(key), float64(c.rank), float64(c.worldRank)}
	all := c.Allgather(contrib)
	var mine []entry
	for r := 0; r < c.Size(); r++ {
		e := entry{int(all[4*r]), int(all[4*r+1]), int(all[4*r+2]), int(all[4*r+3])}
		if e.color == color {
			mine = append(mine, e)
		}
	}
	sort.Slice(mine, func(i, j int) bool {
		if mine[i].key != mine[j].key {
			return mine[i].key < mine[j].key
		}
		return mine[i].rank < mine[j].rank
	})
	members := make([]int, len(mine))
	newRank := -1
	for i, e := range mine {
		members[i] = e.worldRank
		if e.rank == c.rank {
			newRank = i
		}
	}
	// All ranks of the same color must agree on one group object. Rank 0 of
	// the subgroup publishes it through a world-level registry keyed by
	// (parent comm, color).
	keyStr := groupKey{parent: g.id, color: color}
	var ng *group
	if newRank == 0 {
		ng = c.world.newGroup(members)
		c.world.registry.Store(keyStr, ng)
	}
	c.Barrier() // publish before lookup
	if ng == nil {
		v, ok := c.world.registry.Load(keyStr)
		if !ok {
			panic("mpi: Split registry miss")
		}
		ng = v.(*group)
	}
	c.Barrier() // everyone has the group before the registry entry is reused
	if newRank == 0 {
		c.world.registry.Delete(keyStr)
	}
	return &Comm{world: c.world, group: ng, rank: newRank, worldRank: c.worldRank}
}

type groupKey struct {
	parent int64
	color  int
}

// RowBlock returns the [lo, hi) range of rank r when n rows are
// block-striped over size ranks (the paper's row-wise block-striping: each
// rank receives n/size rows, the remainder going one each to the leading
// ranks).
func RowBlock(n, size, r int) (lo, hi int) {
	base, rem := n/size, n%size
	lo = r*base + min(r, rem)
	hi = lo + base
	if r < rem {
		hi++
	}
	return lo, hi
}

// RowOwner returns the rank whose RowBlock(n, size, ·) holds row i. The
// leading rem ranks hold base+1 rows each; when n < size every row lies
// below that boundary, so base > 0 past it.
func RowOwner(n, size, i int) int {
	base, rem := n/size, n%size
	if boundary := rem * (base + 1); i >= boundary {
		return rem + (i-boundary)/base
	}
	return i / (base + 1)
}

// cyclicBarrier is a reusable synchronization barrier that can be broken:
// once brk is called every current and future waiter returns the breaking
// error instead of blocking, which is how a dead rank unwinds the
// survivors.
type cyclicBarrier struct {
	mu    sync.Mutex
	size  int
	count int
	genCh chan struct{} // closed when the current generation completes

	broken  error
	brokeCh chan struct{} // closed when the barrier breaks
}

func newCyclicBarrier(n int) *cyclicBarrier {
	return &cyclicBarrier{
		size:    n,
		genCh:   make(chan struct{}),
		brokeCh: make(chan struct{}),
	}
}

// await blocks until all ranks arrive, the barrier breaks, or timeout
// passes (timeout <= 0 disables the deadline). A timed-out waiter breaks
// the barrier for everyone — the group cannot meaningfully continue.
func (b *cyclicBarrier) await(timeout time.Duration) error {
	b.mu.Lock()
	if b.broken != nil {
		err := b.broken
		b.mu.Unlock()
		return err
	}
	ch := b.genCh
	b.count++
	if b.count == b.size {
		b.count = 0
		b.genCh = make(chan struct{})
		close(ch)
		b.mu.Unlock()
		return nil
	}
	b.mu.Unlock()

	if timeout <= 0 {
		select {
		case <-ch:
			return nil
		case <-b.brokeCh:
			return b.brokenErr()
		}
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-ch:
		return nil
	case <-b.brokeCh:
		// The generation may have completed in the same instant; completion
		// wins so a successful barrier is never misreported.
		select {
		case <-ch:
			return nil
		default:
		}
		return b.brokenErr()
	case <-timer.C:
		select {
		case <-ch:
			return nil
		default:
		}
		b.brk(fmt.Errorf("%w: barrier not completed within %v", ErrTimeout, timeout))
		return b.brokenErr()
	}
}

// brk breaks the barrier with cause (first caller wins).
func (b *cyclicBarrier) brk(cause error) {
	b.mu.Lock()
	if b.broken == nil {
		b.broken = cause
		close(b.brokeCh)
	}
	b.mu.Unlock()
}

func (b *cyclicBarrier) brokenErr() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.broken
}
