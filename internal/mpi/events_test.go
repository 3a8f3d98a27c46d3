package mpi

import (
	"sync"
	"testing"
	"time"

	"uoivar/internal/trace"
)

// runRecorded executes body on size ranks with one recorder per rank and
// returns the recorders.
func runRecorded(t *testing.T, size int, body func(c *Comm) error) []*trace.Recorder {
	t.Helper()
	recs := trace.NewRecorderSet(size, 1<<12)
	if err := RunWithOptions(size, RunOptions{Recorders: recs}, body); err != nil {
		t.Fatal(err)
	}
	return recs
}

// Every wrapped communication call must land on the calling rank's
// timeline with the right peer/tag/bytes.
func TestEventsRecordCalls(t *testing.T) {
	recs := runRecorded(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 9, []float64{1, 2, 3})
		} else {
			c.Recv(0, 9)
		}
		c.Barrier()
		return nil
	})
	ev0, ev1 := recs[0].Events(), recs[1].Events()
	if len(ev0) != 2 || len(ev1) != 2 {
		t.Fatalf("events: rank0 %d, rank1 %d", len(ev0), len(ev1))
	}
	send := ev0[0]
	if send.Name != "send" || send.Cat != "p2p" || send.Peer != 1 || send.Tag != 9 || send.Bytes != 24 {
		t.Fatalf("send event = %+v", send)
	}
	recv := ev1[0]
	if recv.Name != "recv" || recv.Peer != 0 || recv.Bytes != 24 || !recv.FlowRecv {
		t.Fatalf("recv event = %+v", recv)
	}
	if ev0[1].Name != "barrier" || ev0[1].Peer != -1 || ev0[1].Cat != "collective" {
		t.Fatalf("barrier event = %+v", ev0[1])
	}
}

// The two ends of each p2p message must agree on a nonzero flow ID, pairing
// the nth send with the nth recv per channel.
func TestFlowIDsMatchAcrossRanks(t *testing.T) {
	const msgs = 5
	recs := runRecorded(t, 2, func(c *Comm) error {
		for i := 0; i < msgs; i++ {
			if c.Rank() == 0 {
				c.Send(1, 4, []float64{float64(i)})
			} else {
				c.Recv(0, 4)
			}
		}
		return nil
	})
	var sendFlows, recvFlows []uint64
	for _, e := range recs[0].Events() {
		if e.Name == "send" {
			sendFlows = append(sendFlows, e.Flow)
		}
	}
	for _, e := range recs[1].Events() {
		if e.Name == "recv" {
			recvFlows = append(recvFlows, e.Flow)
		}
	}
	if len(sendFlows) != msgs || len(recvFlows) != msgs {
		t.Fatalf("flows: %d sends, %d recvs", len(sendFlows), len(recvFlows))
	}
	seen := map[uint64]bool{}
	for i := range sendFlows {
		if sendFlows[i] == 0 {
			t.Fatal("zero flow id")
		}
		if sendFlows[i] != recvFlows[i] {
			t.Fatalf("message %d: send flow %x != recv flow %x", i, sendFlows[i], recvFlows[i])
		}
		if seen[sendFlows[i]] {
			t.Fatalf("flow id %x reused", sendFlows[i])
		}
		seen[sendFlows[i]] = true
	}
}

// Two identical runs must produce identical per-rank signature sequences —
// timestamps excluded — across collectives and p2p traffic.
func TestEventSequenceDeterministic(t *testing.T) {
	body := func(c *Comm) error {
		data := []float64{float64(c.Rank() + 1), 2}
		c.Allgather(data)
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{3})
		} else if c.Rank() == 1 {
			c.Recv(0, 7)
		}
		c.Barrier()
		c.Allreduce(OpMax, data)
		return nil
	}
	sigs := func() [][]string {
		recs := runRecorded(t, 4, body)
		out := make([][]string, len(recs))
		for r, rec := range recs {
			for _, e := range rec.Events() {
				out[r] = append(out[r], e.Signature())
			}
		}
		return out
	}
	a, b := sigs(), sigs()
	for r := range a {
		if len(a[r]) != len(b[r]) {
			t.Fatalf("rank %d: %d vs %d events", r, len(a[r]), len(b[r]))
		}
		for i := range a[r] {
			if a[r][i] != b[r][i] {
				t.Fatalf("rank %d event %d differs:\n%s\n%s", r, i, a[r][i], b[r][i])
			}
		}
	}
}

// With no recorders attached, nothing must be recorded and nothing must
// break — the nil-safe fast path of every instrumented call.
func TestNoRecordersFastPath(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{1})
		} else {
			c.Recv(0, 1)
		}
		c.Allreduce(OpSum, []float64{1})
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// sumMatrix folds a category's matrix cells into totals.
func sumMatrix(flows []PairFlow, cat Category) (sendCalls, sendBytes, recvCalls, recvBytes int64) {
	for _, f := range flows {
		if f.Category != cat {
			continue
		}
		sendCalls += f.SendCalls
		sendBytes += f.SendBytes
		recvCalls += f.RecvCalls
		recvBytes += f.RecvBytes
	}
	return
}

// Conservation: every p2p byte sent must be received, cell by cell.
func TestCommMatrixConservationP2P(t *testing.T) {
	var flows []PairFlow
	err := Run(3, func(c *Comm) error {
		// Ring exchange with unequal payloads.
		next, prev := (c.Rank()+1)%3, (c.Rank()+2)%3
		payload := make([]float64, 10*(c.Rank()+1))
		c.Send(next, 1, payload)
		c.Recv(prev, 1)
		c.Barrier()
		if c.Rank() == 0 {
			flows = c.CommMatrix()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) == 0 {
		t.Fatal("empty matrix")
	}
	for _, f := range flows {
		if f.Category != CatP2P {
			continue
		}
		if f.SendCalls != f.RecvCalls || f.SendBytes != f.RecvBytes {
			t.Fatalf("cell %d->%d unbalanced: %+v", f.Src, f.Dst, f)
		}
	}
	sc, sb, rc, rb := sumMatrix(flows, CatP2P)
	if sc == 0 || sc != rc || sb != rb {
		t.Fatalf("p2p totals: sends %d/%dB, recvs %d/%dB", sc, sb, rc, rb)
	}
}

// One-sided traffic is origin-recorded on both endpoints, so conservation
// holds there too, and Get/Put direction must be reflected in the cells.
func TestCommMatrixConservationOneSided(t *testing.T) {
	var flows []PairFlow
	err := Run(2, func(c *Comm) error {
		win := c.CreateWin(make([]float64, 8))
		win.Fence()
		if c.Rank() == 0 {
			win.Put(1, 0, []float64{1, 2, 3}) // 0 -> 1
			buf := make([]float64, 2)
			win.Get(1, 4, buf) // 1 -> 0
		}
		win.Fence()
		win.Free()
		if c.Rank() == 0 {
			flows = c.CommMatrix()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var put, get PairFlow
	for _, f := range flows {
		if f.Category != CatOneSided || f.Src == f.Dst {
			continue
		}
		switch {
		case f.Src == 0 && f.Dst == 1:
			put = f
		case f.Src == 1 && f.Dst == 0:
			get = f
		}
	}
	// Put (3 floats) flows 0->1; Get (2 floats) 1->0.
	if put.SendCalls != 1 || put.SendBytes != 24 || put.RecvCalls != 1 || put.RecvBytes != 24 {
		t.Fatalf("put cell = %+v", put)
	}
	if get.SendCalls != 1 || get.SendBytes != 16 || get.RecvBytes != 16 {
		t.Fatalf("get cell = %+v", get)
	}
}

// GlobalStats and CommMatrix must be safe to poll from outside the world's
// goroutines while ranks are mid-communication (the debug endpoint does
// exactly this). Run under -race this is the satellite-1 regression test.
func TestStatsSafeMidRun(t *testing.T) {
	stop := make(chan struct{})
	var pollers sync.WaitGroup
	err := Run(4, func(c *Comm) error {
		if c.Rank() == 0 {
			pollers.Add(1)
			go func() {
				defer pollers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					_ = c.GlobalStats()
					_ = c.AllStats()
					_ = c.CommMatrix()
					_ = c.Health()
				}
			}()
		}
		for i := 0; i < 50; i++ {
			c.Allreduce(OpSum, []float64{1, 2, 3})
			if c.Rank() == 0 {
				c.Send(1, 2, []float64{4})
			} else if c.Rank() == 1 {
				c.Recv(0, 2)
			}
		}
		c.Barrier()
		return nil
	})
	close(stop)
	pollers.Wait()
	if err != nil {
		t.Fatal(err)
	}
}

// Process-wide aggregation folds world rank r of every Run into row r: after
// two worlds of p2p, a stalled Allreduce, a labeled Split and a one-sided
// Put, ProcessStats equals the per-rank sum of the worlds' AllStats in every
// meter, blocked time included.
func TestProcessStats(t *testing.T) {
	EnableProcessStats(true)
	ResetProcessStats()
	defer EnableProcessStats(false)
	want := make([]Stats, 2)
	for i := 0; i < 2; i++ {
		var world *Comm
		if err := Run(2, func(c *Comm) error {
			if c.Rank() == 0 {
				world = c
				c.Send(1, 0, []float64{1, 2})
			} else {
				c.Recv(0, 0)
				time.Sleep(2 * time.Millisecond) // rank 0 waits in the Allreduce
			}
			c.Allreduce(OpSum, []float64{1})
			c.WithLabel("grid").Split(c.Rank(), 0)
			win := c.CreateWin(make([]float64, 2))
			win.Fence()
			win.Put(1-c.Rank(), c.Rank(), []float64{3})
			win.Fence()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for r, s := range world.AllStats() {
			want[r].add(&s)
		}
	}
	if want[0].Wait[CatCollective] == 0 {
		t.Fatal("the stalled Allreduce recorded no blocked time")
	}
	st := ProcessStats()
	if len(st) != 2 {
		t.Fatalf("got %d rank rows", len(st))
	}
	for r, s := range st {
		w := want[r]
		if s.Calls != w.Calls || s.Bytes != w.Bytes || s.Time != w.Time || s.Wait != w.Wait {
			t.Fatalf("rank %d process stats %+v, want the worlds' sum %+v", r, s, w)
		}
	}
	ResetProcessStats()
	if len(ProcessStats()) != 0 {
		t.Fatal("reset did not clear")
	}
}

// Injected faults must surface as instant events on the victim's timeline.
func TestFaultEventsRecorded(t *testing.T) {
	recs := trace.NewRecorderSet(2, 64)
	err := RunWithOptions(2, RunOptions{
		Recorders: recs,
		Fault:     delayInjector{rank: 1, delay: time.Millisecond},
	}, func(c *Comm) error {
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, e := range recs[1].Events() {
		if e.Kind == trace.EvInstant && e.Name == "fault/delay" && e.Cat == "fault" {
			found = true
			if e.Dur != time.Millisecond.Nanoseconds() {
				t.Fatalf("delay event dur = %d", e.Dur)
			}
		}
	}
	if !found {
		t.Fatal("no fault/delay instant on the delayed rank")
	}
	for _, e := range recs[0].Events() {
		if e.Kind == trace.EvInstant {
			t.Fatalf("unexpected instant on healthy rank: %+v", e)
		}
	}
}

// delayInjector delays every comm op of one rank once.
type delayInjector struct {
	rank  int
	delay time.Duration
}

func (d delayInjector) CommOp(worldRank int) (time.Duration, error) {
	if worldRank == d.rank {
		return d.delay, nil
	}
	return 0, nil
}
