package mpi

// Communication-avoiding collectives: a binomial-tree Reduce/Bcast pair and
// a ring Allgatherv with variable per-rank counts, plus a non-blocking ring
// gather for overlapping communication with compute. These are the
// reassembly primitives for the 2-D (bootstrap × λ) UoI grid — see the
// follow-up paper (arXiv 1808.06992), which replaces flat MPI collectives
// with hierarchical ones to keep byte volume off the critical path.
//
// Unlike the flat collectives in mpi.go — which deposit into shared slots
// behind a barrier and charge every rank the full payload — these run on
// point-to-point messages and meter bytes as wire-truth: each hop is charged
// once, to the sender (sendMsg/recvMsg). A binomial-tree reduce over R ranks
// therefore records (R−1)·n floats on the wire versus the flat Allreduce's
// R·n, and a ring allgatherv of total payload S records (R−1)·S versus the
// flat Allgather's R·S — the byte savings the bench artifact reports are
// the same ones a network would see.

import (
	"fmt"
	"sync/atomic"
	"time"
)

// collTagBase offsets the tag space used by the tree/ring collectives away
// from user tags.
const collTagBase = 1 << 26

// collSeq returns the per-rank tree/ring-collective sequence number. Each
// rank counts its own calls; the MPI-style requirement that every rank
// issue collectives in the same order makes the sequences agree, so all
// ranks of one call derive the same tag with no side-channel.
func (g *group) collSeq(rank int) int64 {
	g.mu.Lock()
	if g.collCounters == nil {
		g.collCounters = make([]atomic.Int64, len(g.members))
	}
	g.mu.Unlock()
	return g.collCounters[rank].Add(1)
}

// collTag derives this call's tag from the per-rank sequence.
func (c *Comm) collTag() int {
	return collTagBase + int(c.group.collSeq(c.rank))
}

// vrank maps this communicator's rank r to its virtual rank in a binomial
// tree rooted at root (the rotation that puts root at virtual rank 0).
func vrank(r, root, size int) int { return (r - root + size) % size }

// rrank is the inverse of vrank: virtual rank back to communicator rank.
func rrank(vr, root, size int) int { return (vr + root) % size }

// TreeReduce reduces data elementwise onto root along a binomial tree of
// point-to-point messages: in round k (k = 1, 2, 4, …) every rank whose
// k-th virtual-rank bit is set sends its partial to virtual rank vr−k and
// leaves the tree. Only root's data is overwritten with the result;
// non-root ranks' data is unchanged (partials accumulate in a copy).
//
// Wire volume is (Size−1)·len(data) floats total across ranks — O(n) versus
// the flat Reduce's barrier-replicated R·n — with O(log R) rounds on the
// critical path. The reduction order differs from the flat left-to-right
// fold, so results are exact (and rank-count-independent) for order-free
// ops (OpMax, OpMin) and for integer-valued sums, which is what the UoI
// grid ships through it; arbitrary floating-point sums may differ from the
// flat path in the last ulp.
func (c *Comm) TreeReduce(root int, op Op, data []float64) {
	start := time.Now()
	c.faultPoint()
	c.checkRank(root)
	size := c.Size()
	tag := c.collTag()
	var wait time.Duration
	vr := vrank(c.rank, root, size)
	acc := make([]float64, len(data))
	copy(acc, data)
	for k := 1; k < size; k <<= 1 {
		if vr&k != 0 {
			wait += c.sendMsg(CatCollective, rrank(vr-k, root, size), tag, acc)
			break
		}
		if vr+k < size {
			other, w := c.recvMsg(CatCollective, rrank(vr+k, root, size), tag)
			wait += w
			if len(other) != len(acc) {
				panic(fmt.Sprintf("mpi: TreeReduce length mismatch (%d vs %d)", len(other), len(acc)))
			}
			op.apply(acc, other)
		}
	}
	if c.rank == root {
		copy(data, acc)
	}
	c.meter(CatCollective, 0, 0, 0, start, wait, flow{})
	c.commEvent("tree-reduce", CatCollective, len(data), start, wait)
}

// TreeBcastV broadcasts root's payload along the reverse binomial tree:
// each non-root rank receives from its parent (virtual rank with the lowest
// set bit cleared), then forwards to its children, so the wire volume is
// (Size−1)·len(data) floats at O(log R) depth. Only root needs to know the
// length: root passes the payload (other ranks' data is ignored,
// conventionally nil) and every rank returns it. The transport conveys slice lengths, so no count
// pre-exchange is needed. On root the returned slice is data itself; on
// other ranks it is freshly received.
func (c *Comm) TreeBcastV(root int, data []float64) []float64 {
	start := time.Now()
	c.faultPoint()
	c.checkRank(root)
	size := c.Size()
	tag := c.collTag()
	var wait time.Duration
	vr := vrank(c.rank, root, size)
	buf := data
	if vr != 0 {
		var w time.Duration
		buf, w = c.recvMsg(CatCollective, rrank(vr-vr&(-vr), root, size), tag)
		wait += w
	}
	for k := highestPow2Below(size); k >= 1; k >>= 1 {
		if vr&(k-1) == 0 && vr&k == 0 && vr+k < size {
			wait += c.sendMsg(CatCollective, rrank(vr+k, root, size), tag, buf)
		}
	}
	c.meter(CatCollective, 0, 0, 0, start, wait, flow{})
	c.commEvent("tree-bcastv", CatCollective, len(buf), start, wait)
	return buf
}

// ringStep runs the Size−1 neighbor exchanges of a ring allgatherv and
// returns the per-origin blocks plus the accumulated blocked time. Shared
// by the blocking and non-blocking variants.
func (c *Comm) ringStep(tag int, data []float64) ([][]float64, time.Duration) {
	size, rank := c.Size(), c.rank
	blocks := make([][]float64, size)
	own := make([]float64, len(data))
	copy(own, data)
	blocks[rank] = own
	var wait time.Duration
	right := (rank + 1) % size
	left := (rank - 1 + size) % size
	for s := 0; s < size-1; s++ {
		sendOrigin := ((rank-s)%size + size) % size
		wait += c.sendMsg(CatCollective, right, tag, blocks[sendOrigin])
		recvOrigin := ((rank-1-s)%size + size) % size
		var w time.Duration
		blocks[recvOrigin], w = c.recvMsg(CatCollective, left, tag)
		wait += w
	}
	return blocks, wait
}

// RingAllgatherv concatenates every rank's contribution in rank order on
// every rank — like Allgather, but contributions may have different lengths
// (the transport conveys slice lengths, so no count pre-exchange is
// needed). The exchange runs Size−1 steps around a ring: in step s each
// rank forwards the block that originated s hops back to its right
// neighbor, so every block travels Size−1 hops in total. For total payload
// S = Σ len_r, wire volume is (Size−1)·S floats versus the flat Allgather's
// Size·S accounting, with each rank moving only its neighbor traffic per
// step. The result is a pure concatenation — no arithmetic — so grid
// reassembly built on it is bit-identical to serial by construction.
func (c *Comm) RingAllgatherv(data []float64) []float64 {
	start := time.Now()
	c.faultPoint()
	tag := c.collTag()
	blocks, wait := c.ringStep(tag, data)
	total := 0
	for _, b := range blocks {
		total += len(b)
	}
	out := make([]float64, 0, total)
	for _, b := range blocks {
		out = append(out, b...)
	}
	c.meter(CatCollective, 0, 0, 0, start, wait, flow{})
	c.commEvent("ring-allgatherv", CatCollective, len(data), start, wait)
	return out
}

// GatherRequest is a handle on an in-flight non-blocking ring allgatherv.
type GatherRequest struct {
	done   chan struct{}
	result []float64
	err    error
	comm   *Comm
	start  time.Time
	floats int
}

// IRingAllgatherv starts a RingAllgatherv in the background and returns
// immediately; the caller overlaps computation with the ring exchange and
// calls Wait for the concatenated result. As with MPI's non-blocking
// collectives, every rank must issue its calls in the same order. The tag
// is claimed at initiation, so blocking collectives may run on the same
// communicator while the gather is in flight.
func (c *Comm) IRingAllgatherv(data []float64) *GatherRequest {
	start := time.Now()
	c.faultPoint()
	tag := c.collTag()
	req := &GatherRequest{
		done:   make(chan struct{}),
		comm:   c,
		start:  start,
		floats: len(data),
	}
	buf := make([]float64, len(data))
	copy(buf, data)
	go func() {
		// A communication failure (dead peer, timeout) panics with
		// commFailure inside the wire sends/receives; capture it so the
		// background goroutine never crashes the process and Wait can
		// surface the typed error on the owning rank.
		defer func() {
			if p := recover(); p != nil {
				if cf, ok := p.(commFailure); ok {
					req.err = cf.err
				} else {
					req.err = fmt.Errorf("mpi: IRingAllgatherv panicked: %v", p)
				}
			}
			close(req.done)
		}()
		blocks, _ := c.ringStep(tag, buf)
		total := 0
		for _, b := range blocks {
			total += len(b)
		}
		out := make([]float64, 0, total)
		for _, b := range blocks {
			out = append(out, b...)
		}
		req.result = out
	}()
	return req
}

// Wait blocks until the gather completes and returns the concatenated
// result. If the operation failed (a peer rank died or the deadline
// expired), Wait unwinds the caller with the typed communication error,
// exactly as the blocking collectives do.
func (r *GatherRequest) Wait() []float64 {
	t0 := time.Now()
	<-r.done
	wait := time.Since(t0)
	if r.err != nil {
		panic(commFailure{r.err})
	}
	r.comm.meter(CatCollective, 0, 0, 0, r.start, wait, flow{})
	r.comm.commEvent("iring-allgatherv", CatCollective, r.floats, r.start, wait)
	return r.result
}

// highestPow2Below returns the largest power of two < n (≥1 for n≥2).
func highestPow2Below(n int) int {
	p := 1
	for p*2 < n {
		p *= 2
	}
	return p
}
