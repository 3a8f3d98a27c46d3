package mpi

import (
	"fmt"
	"time"
)

// Win is a one-sided communication window, the analogue of an MPI RMA
// window. Every rank contributes a local buffer at creation; between Fence
// calls any rank may Get from or Put to any rank's buffer.
//
// The paper uses one-sided windows twice: Tier-2 of the randomized data
// distribution (§III-B1) and the distributed Kronecker product/vectorization
// (§III-B2), where a few n_reader processes expose their data blocks through
// windows and the compute ranks Get the pieces they need.
type Win struct {
	comm    *Comm
	buffers [][]float64 // indexed by comm rank
}

// CreateWin collectively creates a window exposing local on each rank.
// local may be nil for ranks exposing nothing (pure consumers).
func (c *Comm) CreateWin(local []float64) *Win {
	start := time.Now()
	c.faultPoint()
	g := c.group
	g.slots[c.rank] = local
	var wait time.Duration
	c.syncW(&wait)
	buffers := make([][]float64, c.Size())
	copy(buffers, g.slots)
	c.syncW(&wait)
	c.meter(CatOneSided, 0, start, wait, flow{})
	c.commEvent("win/create", CatOneSided, 0, start, wait)
	return &Win{comm: c, buffers: buffers}
}

// Fence separates RMA epochs: all operations issued before the fence are
// complete on every rank once Fence returns.
func (w *Win) Fence() {
	start := time.Now()
	w.comm.faultPoint()
	var wait time.Duration
	w.comm.syncW(&wait)
	w.comm.meter(CatOneSided, 0, start, wait, flow{})
	w.comm.commEvent("win/fence", CatOneSided, 0, start, wait)
}

// Get copies len(dst) values from target's buffer starting at offset.
func (w *Win) Get(target, offset int, dst []float64) {
	start := time.Now()
	buf := w.target(target)
	if offset < 0 || offset+len(dst) > len(buf) {
		panic(fmt.Sprintf("mpi: Get [%d,%d) outside window of %d on rank %d",
			offset, offset+len(dst), len(buf), target))
	}
	copy(dst, buf[offset:offset+len(dst)])
	// Data flows target→origin; the origin records both matrix endpoints
	// because the target is passive.
	w.comm.meter(CatOneSided, len(dst), start, 0,
		flow{src: w.comm.group.members[target], dst: w.comm.worldRank, send: true, recv: true})
	w.rmaEvent("win/get", target, len(dst), start)
}

// Put copies src into target's buffer starting at offset. Concurrent Puts to
// disjoint ranges are safe (as with MPI_Put under proper epoch discipline);
// overlapping Puts within an epoch are a program error in MPI and here.
func (w *Win) Put(target, offset int, src []float64) {
	start := time.Now()
	buf := w.target(target)
	if offset < 0 || offset+len(src) > len(buf) {
		panic(fmt.Sprintf("mpi: Put [%d,%d) outside window of %d on rank %d",
			offset, offset+len(src), len(buf), target))
	}
	copy(buf[offset:offset+len(src)], src)
	w.comm.meter(CatOneSided, len(src), start, 0,
		flow{src: w.comm.worldRank, dst: w.comm.group.members[target], send: true, recv: true})
	w.rmaEvent("win/put", target, len(src), start)
}

// rmaEvent records one RMA operation on the origin rank's event timeline
// under the label-suffixed name, like the window's collective calls (no
// flow arrow: the target rank makes no matching call to anchor one).
func (w *Win) rmaEvent(name string, target, floats int, start time.Time) {
	if r := w.comm.recorder(); r != nil {
		r.Comm(w.comm.evName(name), CatOneSided.String(), w.comm.group.members[target], 0,
			int64(floats*bytesPerFloat), start, 0, 0, false)
	}
}

func (w *Win) target(r int) []float64 {
	if r < 0 || r >= len(w.buffers) {
		panic(fmt.Sprintf("mpi: window target %d out of range", r))
	}
	return w.buffers[r]
}

// Free is collective and invalidates the window.
func (w *Win) Free() {
	w.comm.sync()
	w.buffers = nil
}
