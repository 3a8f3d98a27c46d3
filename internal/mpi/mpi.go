// Package mpi is an in-process message-passing runtime that stands in for
// MPI in the paper's implementation. Ranks are goroutines; the package
// provides the primitives the UoI codes use: point-to-point Send/Recv,
// Bcast, Allreduce, Allgather, tree/ring collectives, Barrier, communicator
// Split (for the P_B × P_λ process grids), and one-sided windows (Put/Get
// between Fences) used by the randomized data distribution and the
// distributed Kronecker product.
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
	// CatCollective covers Bcast/Allreduce/Allgather/Barrier and the
	// tree/ring collectives.
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
// Bytes counts bytes-on-wire: every message is charged once, to the rank
// that put it on the wire. The flat slot-based collectives charge each rank
// its own contribution (the slice it deposits or copies out), and the
// tree/ring collectives (collectives.go) charge only the sending endpoint
// of each hop — so summing Bytes over ranks gives the total traffic a real
// network would carry, and the communication-avoiding paths measurably
// beat the flat ones rather than double-counting themselves into a loss.
type Stats struct {
	// Calls counts completed communication calls per category.
	Calls [numCategories]int64
	// Bytes counts bytes-on-wire per category (see the type comment).
	Bytes [numCategories]int64
	// Time is total wall time spent inside communication calls.
	Time [numCategories]time.Duration
	// Wait is the portion of Time spent blocked — barrier waits, full
	// channels, absent messages — rather than transferring data. The
	// scaling experiments watch this drop when flat collectives are
	// replaced by tree/ring ones.
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
		s.Calls[c] += o.Calls[c]
		s.Bytes[c] += o.Bytes[c]
		s.Time[c] += o.Time[c]
		s.Wait[c] += o.Wait[c]
	}
	if o.Health > s.Health {
		s.Health = o.Health
	}
}

const bytesPerFloat = 8

// pairCell is one src→dst×category cell of the communication matrix. Send
// fields are recorded by the sending rank, recv fields by the receiving
// rank; for one-sided (RMA) transfers the origin records both directions,
// since the target is passive.
type pairCell struct {
	sendCalls, sendBytes int64
	sendTime             time.Duration
	recvCalls, recvBytes int64
	recvTime             time.Duration
}

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

// pairDir selects which side of a pair cell a call updates.
type pairDir uint8

const (
	pairSend pairDir = iota
	pairRecv
)

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

func procAdd(rank int, cat Category, bytes int64, elapsed time.Duration) {
	procStats.mu.Lock()
	for len(procStats.ranks) <= rank {
		procStats.ranks = append(procStats.ranks, Stats{})
	}
	s := &procStats.ranks[rank]
	s.Calls[cat]++
	s.Bytes[cat] += bytes
	s.Time[cat] += elapsed
	procStats.mu.Unlock()
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
	// entries — unlisted ranks simply record nothing. Background helper
	// goroutines (non-blocking collectives) never record, so a rank's event
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
	// tagged with WithLabel; guarded by statsMu. Lazily allocated so
	// label-free runs pay one nil check per meter call.
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
		size:   size,
		opts:   opts,
		stats:  make([]Stats, size),
		pairs:  make([]pairCell, size*size*int(numCategories)),
		failCh: make(chan struct{}),
		health: make([]atomic.Int32, size),
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
	// collCounters sequence the tree/ring collectives per rank.
	collCounters []atomic.Int64
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
	// communicator ("row", "col", "world") in the per-label stats and on
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

// addWait folds a call's blocked time into this rank's Stats.Wait (and the
// labeled counters when the handle carries a communicator label).
func (c *Comm) addWait(cat Category, wait time.Duration) {
	if wait == 0 {
		return
	}
	w := c.world
	w.statsMu.Lock()
	w.stats[c.worldRank].Wait[cat] += wait
	if c.label != "" {
		c.labeledLocked().Wait[cat] += wait
	}
	w.statsMu.Unlock()
}

// labeledLocked returns (creating on first use) this handle's per-label
// Stats cell. Caller holds world.statsMu.
func (c *Comm) labeledLocked() *Stats {
	w := c.world
	if w.labeled == nil {
		w.labeled = map[labelKey]*Stats{}
	}
	k := labelKey{rank: c.worldRank, label: c.label}
	s, ok := w.labeled[k]
	if !ok {
		s = &Stats{}
		w.labeled[k] = s
	}
	return s
}

// meter records a communication event on this rank's aggregate counters.
func (c *Comm) meter(cat Category, floats int, start time.Time) {
	c.meterPair(cat, -1, 0, floats, start)
}

// meterPair is meter plus, when peerWorld ≥ 0, an update of the per-pair
// communication matrix under the same lock acquisition. dir selects whether
// this rank is the sending or receiving endpoint of the src→dst flow.
func (c *Comm) meterPair(cat Category, peerWorld int, dir pairDir, floats int, start time.Time) {
	elapsed := time.Since(start)
	bytes := int64(floats * bytesPerFloat)
	w := c.world
	w.statsMu.Lock()
	s := &w.stats[c.worldRank]
	s.Calls[cat]++
	s.Bytes[cat] += bytes
	s.Time[cat] += elapsed
	if c.label != "" {
		ls := c.labeledLocked()
		ls.Calls[cat]++
		ls.Bytes[cat] += bytes
		ls.Time[cat] += elapsed
	}
	if peerWorld >= 0 {
		if dir == pairSend {
			cell := &w.pairs[w.pairIndex(c.worldRank, peerWorld, cat)]
			cell.sendCalls++
			cell.sendBytes += bytes
			cell.sendTime += elapsed
		} else {
			cell := &w.pairs[w.pairIndex(peerWorld, c.worldRank, cat)]
			cell.recvCalls++
			cell.recvBytes += bytes
			cell.recvTime += elapsed
		}
	}
	w.statsMu.Unlock()
	if procStats.enabled.Load() {
		procAdd(c.worldRank, cat, bytes, elapsed)
	}
}

// meterWire records one endpoint of a wire-metered (tree/ring collective)
// hop: the sending side charges the payload to its aggregate and labeled
// byte counters plus the pair matrix's send cell; the receiving side charges
// the call and its time but ZERO aggregate bytes — the payload appears only
// in the pair matrix's recv cell, so per-pair conservation (send bytes ==
// recv bytes) still holds while rank-summed Stats.Bytes counts each message
// exactly once (see the Stats doc comment).
func (c *Comm) meterWire(peerWorld int, dir pairDir, floats int, start time.Time) {
	elapsed := time.Since(start)
	bytes := int64(floats * bytesPerFloat)
	statBytes := bytes
	if dir == pairRecv {
		statBytes = 0
	}
	w := c.world
	w.statsMu.Lock()
	s := &w.stats[c.worldRank]
	s.Calls[CatCollective]++
	s.Bytes[CatCollective] += statBytes
	s.Time[CatCollective] += elapsed
	if c.label != "" {
		ls := c.labeledLocked()
		ls.Calls[CatCollective]++
		ls.Bytes[CatCollective] += statBytes
		ls.Time[CatCollective] += elapsed
	}
	if dir == pairSend {
		cell := &w.pairs[w.pairIndex(c.worldRank, peerWorld, CatCollective)]
		cell.sendCalls++
		cell.sendBytes += bytes
		cell.sendTime += elapsed
	} else {
		cell := &w.pairs[w.pairIndex(peerWorld, c.worldRank, CatCollective)]
		cell.recvCalls++
		cell.recvBytes += bytes
		cell.recvTime += elapsed
	}
	w.statsMu.Unlock()
	if procStats.enabled.Load() {
		procAdd(c.worldRank, CatCollective, statBytes, elapsed)
	}
}

// meterFlow records a one-sided (RMA) transfer flowing srcWorld→dstWorld:
// the origin rank accounts for both endpoints of the cell, since the target
// is passive. The aggregate counters are still charged to the calling rank
// only (the rank that spent the time).
func (c *Comm) meterFlow(cat Category, srcWorld, dstWorld, floats int, start time.Time) {
	elapsed := time.Since(start)
	bytes := int64(floats * bytesPerFloat)
	w := c.world
	w.statsMu.Lock()
	s := &w.stats[c.worldRank]
	s.Calls[cat]++
	s.Bytes[cat] += bytes
	s.Time[cat] += elapsed
	cell := &w.pairs[w.pairIndex(srcWorld, dstWorld, cat)]
	cell.sendCalls++
	cell.sendBytes += bytes
	cell.sendTime += elapsed
	cell.recvCalls++
	cell.recvBytes += bytes
	cell.recvTime += elapsed
	w.statsMu.Unlock()
	if procStats.enabled.Load() {
		procAdd(c.worldRank, cat, bytes, elapsed)
	}
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
				if cell.sendCalls == 0 && cell.recvCalls == 0 {
					continue
				}
				out = append(out, PairFlow{
					Src: src, Dst: dst, Category: cat,
					SendCalls: cell.sendCalls, SendBytes: cell.sendBytes, SendTime: cell.sendTime,
					RecvCalls: cell.recvCalls, RecvBytes: cell.recvBytes, RecvTime: cell.recvTime,
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

// commEvent records a completed peerless (collective/RMA-epoch) call: the
// blocked portion is folded into Stats.Wait, and — when a recorder is
// attached — the call appears on the rank's event timeline under the
// label-suffixed name (see WithLabel).
func (c *Comm) commEvent(name string, cat Category, floats int, start time.Time, wait time.Duration) {
	c.addWait(cat, wait)
	if r := c.recorder(); r != nil {
		r.Comm(c.evName(name), cat.String(), -1, 0, int64(floats*bytesPerFloat), start, wait, 0, false)
	}
}

// Send transmits a copy of data to rank dst with the given tag.
func (c *Comm) Send(dst, tag int, data []float64) {
	start := time.Now()
	c.faultPoint()
	var flow uint64
	if c.world.eventsOn {
		flow = c.world.flowID(chanKey{comm: c.group.id, src: c.rank, dst: dst, tag: tag}, true)
	}
	wait := c.sendRaw(dst, tag, data)
	if r := c.recorder(); r != nil {
		r.Comm(c.evName("send"), CatP2P.String(), c.group.members[dst], tag,
			int64(len(data)*bytesPerFloat), start, wait, flow, false)
	}
}

// sendRaw is the transport half of Send, without its fault point or event
// recording; it returns the time spent blocked on a full channel. The communication matrix is
// updated here so every message is accounted for, wrapped or not.
func (c *Comm) sendRaw(dst, tag int, data []float64) (wait time.Duration) {
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
			panic(commFailure{fmt.Errorf("%w: Send to rank %d (tag %d) after %v", ErrTimeout, dst, tag, c.world.opts.CollectiveTimeout)})
		}
		wait = time.Since(t0)
	}
	c.addWait(CatP2P, wait)
	c.meterPair(CatP2P, c.group.members[dst], pairSend, len(data), start)
	return wait
}

// Recv blocks until a message with the given tag arrives from src and
// returns its payload. If the world fails or the deadline expires first,
// the call unwinds with ErrRankFailed/ErrTimeout.
func (c *Comm) Recv(src, tag int) []float64 {
	start := time.Now()
	c.faultPoint()
	var flow uint64
	if c.world.eventsOn {
		flow = c.world.flowID(chanKey{comm: c.group.id, src: src, dst: c.rank, tag: tag}, false)
	}
	data, wait := c.recvRaw(src, tag)
	if r := c.recorder(); r != nil {
		r.Comm(c.evName("recv"), CatP2P.String(), c.group.members[src], tag,
			int64(len(data)*bytesPerFloat), start, wait, flow, true)
	}
	return data
}

// recvRaw is Recv without the fault point or event recording (see sendRaw);
// it returns the payload and the time spent blocked waiting for it.
func (c *Comm) recvRaw(src, tag int) ([]float64, time.Duration) {
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
			panic(commFailure{fmt.Errorf("%w: Recv from rank %d (tag %d) after %v", ErrTimeout, src, tag, c.world.opts.CollectiveTimeout)})
		}
		wait = time.Since(t0)
	}
	c.addWait(CatP2P, wait)
	c.meterPair(CatP2P, c.group.members[src], pairRecv, len(data), start)
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
	c.meter(CatCollective, 0, start)
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
	c.meter(CatCollective, len(data), start)
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
	c.meter(CatCollective, len(data), start)
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
	c.meter(CatCollective, len(data)*c.Size(), start)
	c.commEvent("allgather", CatCollective, len(data)*c.Size(), start, wait)
	return out
}

// Split partitions the communicator by color (ranks sharing a color form a
// new communicator, ordered by key then by current rank), mirroring
// MPI_Comm_split. The paper's P_B × P_λ parallelism is built from two Splits.
func (c *Comm) Split(color, key int) *Comm {
	start := time.Now()
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
	c.meter(CatCollective, 0, start)
	return &Comm{world: c.world, group: ng, rank: newRank, worldRank: c.worldRank}
}

type groupKey struct {
	parent int64
	color  int
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
