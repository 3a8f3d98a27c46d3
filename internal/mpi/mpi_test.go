package mpi

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunSizes(t *testing.T) {
	for _, size := range []int{1, 2, 7, 16} {
		var count atomic.Int64
		err := Run(size, func(c *Comm) error {
			if c.Size() != size {
				return fmt.Errorf("size = %d, want %d", c.Size(), size)
			}
			count.Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if int(count.Load()) != size {
			t.Fatalf("ran %d bodies, want %d", count.Load(), size)
		}
	}
	if err := Run(0, func(c *Comm) error { return nil }); err == nil {
		t.Fatal("Run(0) must fail")
	}
}

func TestRanksAreDistinct(t *testing.T) {
	seen := make([]atomic.Int64, 8)
	err := Run(8, func(c *Comm) error {
		seen[c.Rank()].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := range seen {
		if seen[r].Load() != 1 {
			t.Fatalf("rank %d seen %d times", r, seen[r].Load())
		}
	}
}

func TestRunPropagatesError(t *testing.T) {
	sentinel := errors.New("boom")
	err := Run(4, func(c *Comm) error {
		if c.Rank() == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
}

func TestRunRecoversPanic(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected panic to surface as error")
	}
}

func TestSendRecv(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1, 2, 3})
		} else {
			got := c.Recv(0, 7)
			if len(got) != 3 || got[2] != 3 {
				return fmt.Errorf("Recv got %v", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []float64{42}
			c.Send(1, 0, buf)
			buf[0] = -1 // must not affect the receiver
			c.Barrier()
		} else {
			c.Barrier()
			if got := c.Recv(0, 0); got[0] != 42 {
				return fmt.Errorf("payload aliased: %v", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagsSeparateStreams(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{1})
			c.Send(1, 2, []float64{2})
		} else {
			// Receive in the opposite order of sending.
			if got := c.Recv(0, 2); got[0] != 2 {
				return fmt.Errorf("tag 2 got %v", got)
			}
			if got := c.Recv(0, 1); got[0] != 1 {
				return fmt.Errorf("tag 1 got %v", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcast(t *testing.T) {
	err := Run(5, func(c *Comm) error {
		data := make([]float64, 4)
		if c.Rank() == 2 {
			for i := range data {
				data[i] = float64(10 + i)
			}
		}
		c.Bcast(2, data)
		for i := range data {
			if data[i] != float64(10+i) {
				return fmt.Errorf("rank %d: Bcast data %v", c.Rank(), data)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceSum(t *testing.T) {
	const n = 6
	err := Run(n, func(c *Comm) error {
		data := []float64{float64(c.Rank()), 1}
		c.Allreduce(OpSum, data)
		wantSum := float64(n*(n-1)) / 2
		if data[0] != wantSum || data[1] != n {
			return fmt.Errorf("rank %d: Allreduce got %v", c.Rank(), data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceMaxMin(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		v := float64(c.Rank())
		if got := c.AllreduceScalar(OpMax, v); got != 3 {
			return fmt.Errorf("max got %v", got)
		}
		if got := c.AllreduceScalar(OpMin, v); got != 0 {
			return fmt.Errorf("min got %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceRepeated(t *testing.T) {
	// Exercises barrier reuse across many collective rounds.
	err := Run(3, func(c *Comm) error {
		acc := 0.0
		for i := 0; i < 50; i++ {
			acc = c.AllreduceScalar(OpSum, 1)
			if acc != 3 {
				return fmt.Errorf("round %d: got %v", i, acc)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgather(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		mine := []float64{float64(c.Rank()), float64(c.Rank() * 10)}
		ag := c.Allgather(mine)
		if len(ag) != 6 || ag[3] != 10 || ag[4] != 2 {
			return fmt.Errorf("Allgather got %v", ag)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitGrid(t *testing.T) {
	// 6 ranks → 2×3 grid: rows by color=rank/3, cols by color=rank%3.
	err := Run(6, func(c *Comm) error {
		row := c.Split(c.Rank()/3, c.Rank()%3)
		col := c.Split(c.Rank()%3, c.Rank()/3)
		if row.Size() != 3 || col.Size() != 2 {
			return fmt.Errorf("rank %d: row size %d col size %d", c.Rank(), row.Size(), col.Size())
		}
		if row.Rank() != c.Rank()%3 || col.Rank() != c.Rank()/3 {
			return fmt.Errorf("rank %d: got row rank %d col rank %d", c.Rank(), row.Rank(), col.Rank())
		}
		// Collectives on the sub-communicators must stay within the group.
		sum := row.AllreduceScalar(OpSum, float64(c.Rank()))
		wantRow := []float64{0 + 1 + 2, 3 + 4 + 5}[c.Rank()/3]
		if sum != wantRow {
			return fmt.Errorf("rank %d: row sum %v want %v", c.Rank(), sum, wantRow)
		}
		csum := col.AllreduceScalar(OpSum, float64(c.Rank()))
		wantCol := float64(c.Rank()%3)*2 + 3
		if csum != wantCol {
			return fmt.Errorf("rank %d: col sum %v want %v", c.Rank(), csum, wantCol)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A Split is metered as the calls it makes — one Allgather of four floats
// per rank and two Barriers — and nothing more: its Stats equal those of the
// same three calls made by hand, and its metered time lies inside the wall
// time of the Split, so no span is counted twice.
func TestSplitStatsAreItsInnerCalls(t *testing.T) {
	const size = 3
	err := Run(size, func(c *Comm) error {
		before := c.LocalStats()
		start := time.Now()
		c.Split(c.Rank()%2, c.Rank())
		wall := time.Since(start)
		split := c.LocalStats()
		c.Allgather(make([]float64, 4))
		c.Barrier()
		c.Barrier()
		byHand := c.LocalStats()
		for cat := Category(0); cat < numCategories; cat++ {
			calls, bytes := split.Calls[cat]-before.Calls[cat], split.Bytes[cat]-before.Bytes[cat]
			if want := byHand.Calls[cat] - split.Calls[cat]; calls != want {
				return fmt.Errorf("rank %d %v: Split metered %d calls, its inner calls %d", c.Rank(), cat, calls, want)
			}
			if want := byHand.Bytes[cat] - split.Bytes[cat]; bytes != want {
				return fmt.Errorf("rank %d %v: Split metered %d bytes, its inner calls %d", c.Rank(), cat, bytes, want)
			}
		}
		if calls := split.Calls[CatCollective] - before.Calls[CatCollective]; calls != 3 {
			return fmt.Errorf("rank %d: Split metered %d collective calls, want 3", c.Rank(), calls)
		}
		if d := split.Time[CatCollective] - before.Time[CatCollective]; d > wall {
			return fmt.Errorf("rank %d: Split metered %v of collective time in %v of wall time", c.Rank(), d, wall)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitKeyOrdersRanks(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		// Reverse ordering via key.
		sub := c.Split(0, -c.Rank())
		if sub.Rank() != 3-c.Rank() {
			return fmt.Errorf("rank %d got sub rank %d", c.Rank(), sub.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStatsMetering(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]float64, 100))
		} else {
			c.Recv(0, 0)
		}
		c.Allreduce(OpSum, make([]float64, 10))
		c.Barrier()
		s := c.LocalStats()
		if s.Calls[CatP2P] != 1 || s.Bytes[CatP2P] != 800 {
			return fmt.Errorf("rank %d p2p stats %+v", c.Rank(), s)
		}
		if s.Calls[CatCollective] < 2 {
			return fmt.Errorf("collective calls %d", s.Calls[CatCollective])
		}
		c.Barrier()
		g := c.GlobalStats()
		if g.Bytes[CatP2P] != 1600 {
			return fmt.Errorf("global p2p bytes %d", g.Bytes[CatP2P])
		}
		calls, bytes, _ := g.Total()
		if calls <= 0 || bytes <= 0 {
			return fmt.Errorf("Total() = %d, %d", calls, bytes)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCategoryString(t *testing.T) {
	if CatP2P.String() != "p2p" || CatCollective.String() != "collective" ||
		CatOneSided.String() != "one-sided" || Category(99).String() != "unknown" {
		t.Fatal("Category.String wrong")
	}
}

func TestAllreduceLargeVector(t *testing.T) {
	const n, p = 4096, 4
	err := Run(p, func(c *Comm) error {
		data := make([]float64, n)
		for i := range data {
			data[i] = float64(c.Rank() + 1)
		}
		c.Allreduce(OpSum, data)
		want := float64(p*(p+1)) / 2
		for i := range data {
			if math.Abs(data[i]-want) > 0 {
				return fmt.Errorf("data[%d] = %v want %v", i, data[i], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// RowOwner must agree with RowBlock's striping for every row, including
// n < size, where the trailing ranks own nothing.
func TestRowBlockOwner(t *testing.T) {
	for _, c := range []struct{ n, size int }{
		{10, 3}, {12, 4}, {7, 7}, {9, 2}, {7, 2}, {9, 9}, {4, 1}, {3, 5}, {1, 4},
	} {
		for i := 0; i < c.n; i++ {
			r := RowOwner(c.n, c.size, i)
			lo, hi := RowBlock(c.n, c.size, r)
			if i < lo || i >= hi {
				t.Fatalf("n=%d size=%d: row %d → rank %d block [%d,%d)", c.n, c.size, i, r, lo, hi)
			}
		}
	}
}

// BenchmarkMeteredCalls is the meter's layer row: one 2-rank world runs b.N
// iterations of an 8-float Allreduce plus a Send/Recv pair, each call
// metered once.
func BenchmarkMeteredCalls(b *testing.B) {
	b.ReportAllocs()
	err := Run(2, func(c *Comm) error {
		data := make([]float64, 8)
		for i := 0; i < b.N; i++ {
			c.Allreduce(OpMax, data)
			if c.Rank() == 0 {
				c.Send(1, 0, data)
			} else {
				c.Recv(0, 0)
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// Labeled handles attribute their traffic per label without disturbing the
// unlabeled totals.
func TestLabeledStatsAttribution(t *testing.T) {
	const size = 4
	err := Run(size, func(c *Comm) error {
		row := c.Split(c.Rank()/2, c.Rank()).WithLabel("row")
		col := c.Split(c.Rank()%2, c.Rank()).WithLabel("col")
		row.Allreduce(OpSum, make([]float64, 8))
		col.Allgather(make([]float64, 3))
		labels := c.LocalLabelStats()
		for _, want := range []string{"row", "col"} {
			s, ok := labels[want]
			if !ok {
				return fmt.Errorf("rank %d: label %q missing (have %v)", c.Rank(), want, labels)
			}
			if s.Calls[CatCollective] == 0 {
				return fmt.Errorf("rank %d: label %q has no collective calls", c.Rank(), want)
			}
		}
		total := c.LocalStats()
		var labeledBytes int64
		for _, s := range labels {
			labeledBytes += s.Bytes[CatCollective]
		}
		if labeledBytes > total.Bytes[CatCollective] {
			return fmt.Errorf("rank %d: labeled bytes %d exceed total %d", c.Rank(), labeledBytes, total.Bytes[CatCollective])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Stats.Wait accumulates blocked time even without recorders attached: a
// rank arriving late at a barrier charges the early ranks' wait counters.
func TestStatsWaitAccumulates(t *testing.T) {
	const size = 2
	var mu sync.Mutex
	var waits []time.Duration
	err := Run(size, func(c *Comm) error {
		if c.Rank() == 1 {
			time.Sleep(30 * time.Millisecond)
		}
		c.Barrier()
		s := c.LocalStats()
		var w time.Duration
		for _, d := range s.Wait {
			w += d
		}
		mu.Lock()
		waits = append(waits, w)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var max time.Duration
	for _, w := range waits {
		if w > max {
			max = w
		}
	}
	if max < 10*time.Millisecond {
		t.Fatalf("expected ≥10ms barrier wait on the early rank, got max %v", max)
	}
}
