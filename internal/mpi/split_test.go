package mpi

import (
	"fmt"
	"sync"
	"testing"
)

// Split must partition the world exactly: every world rank lands in exactly
// one sub-communicator per color, sub-comm sizes sum to the world size, and
// members are disjoint across colors.
func TestSplitExactPartition(t *testing.T) {
	for _, size := range []int{1, 2, 5, 8, 12} {
		for _, colors := range []int{1, 2, 3, size} {
			var mu sync.Mutex
			seen := map[int][]int{} // color → world ranks that joined it
			err := Run(size, func(c *Comm) error {
				color := c.Rank() % colors
				sub := c.Split(color, c.Rank())
				mu.Lock()
				seen[color] = append(seen[color], c.WorldRank())
				mu.Unlock()
				// Every member of the sub-comm shares the color: verify via
				// an in-sub-comm reduction of the color value.
				if got := sub.AllreduceScalar(OpMax, float64(color)); got != float64(color) {
					return fmt.Errorf("sub-comm for color %d saw foreign color %v", color, got)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			joined := map[int]bool{}
			for color, ranks := range seen {
				total += len(ranks)
				for _, r := range ranks {
					if joined[r] {
						t.Fatalf("size=%d colors=%d: world rank %d joined two sub-comms", size, colors, r)
					}
					joined[r] = true
					if r%colors != color {
						t.Fatalf("size=%d colors=%d: rank %d in wrong color %d", size, colors, r, color)
					}
				}
			}
			if total != size {
				t.Fatalf("size=%d colors=%d: %d memberships, want %d", size, colors, total, size)
			}
		}
	}
}

// Sub-comm ranks are ordered by key, ties broken by parent rank —
// deterministically, so the same Split arguments always produce the same
// rank layout.
func TestSplitDeterministicOrdering(t *testing.T) {
	const size = 8
	for trial := 0; trial < 3; trial++ {
		var mu sync.Mutex
		layout := map[int]int{} // world rank → sub rank
		err := Run(size, func(c *Comm) error {
			// Reverse keys: world rank r gets key size−r, so sub ranks must
			// come out reversed within each color.
			sub := c.Split(c.Rank()%2, size-c.Rank())
			mu.Lock()
			layout[c.WorldRank()] = sub.Rank()
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// Color 0 members are world ranks {0,2,4,6} with keys {8,6,4,2}:
		// sub rank 0 ↔ highest world rank.
		want := map[int]int{0: 3, 2: 2, 4: 1, 6: 0, 1: 3, 3: 2, 5: 1, 7: 0}
		for wr, sr := range layout {
			if sr != want[wr] {
				t.Fatalf("trial %d: world rank %d got sub rank %d, want %d", trial, wr, sr, want[wr])
			}
		}
	}
}

// Identical keys must fall back to parent-rank order.
func TestSplitTieBreakByParentRank(t *testing.T) {
	const size = 6
	var mu sync.Mutex
	layout := map[int]int{}
	err := Run(size, func(c *Comm) error {
		sub := c.Split(0, 42) // all same color, all same key
		mu.Lock()
		layout[c.WorldRank()] = sub.Rank()
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for wr, sr := range layout {
		if sr != wr {
			t.Fatalf("world rank %d got sub rank %d, want parent order", wr, sr)
		}
	}
}

// Traffic on a sub-communicator lands in the parent world's pair matrix —
// there is one matrix per world — and sub-comm cells conserve bytes
// (send == recv per cell), so grid traffic is fully auditable from the
// world handle.
func TestSplitCommMatrixConservation(t *testing.T) {
	const size = 8
	var mu sync.Mutex
	var matrix []PairFlow
	err := Run(size, func(c *Comm) error {
		row := c.Split(c.Rank()/4, c.Rank())
		col := c.Split(c.Rank()%4, c.Rank())
		// p2p inside the row sub-comm between sub ranks 0↔1.
		if row.Rank() == 0 {
			row.Send(1, 5, make([]float64, 16))
		} else if row.Rank() == 1 {
			row.Recv(0, 5)
		}
		// Collectives on both sub-comms fill no pair cell.
		row.Allreduce(OpSum, make([]float64, 4))
		col.Allgather(make([]float64, 2))
		c.Barrier()
		if c.Rank() == 0 {
			mu.Lock()
			matrix = c.CommMatrix()
			mu.Unlock()
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(matrix) == 0 {
		t.Fatal("empty comm matrix")
	}
	var sendB, recvB int64
	for _, f := range matrix {
		if f.Src < 0 || f.Src >= size || f.Dst < 0 || f.Dst >= size {
			t.Fatalf("pair %d→%d outside world [0,%d)", f.Src, f.Dst, size)
		}
		if f.Category == CatP2P || f.Category == CatCollective {
			sendB += f.SendBytes
			recvB += f.RecvBytes
		}
		if (f.Category == CatP2P || f.Category == CatCollective) &&
			(f.SendBytes != f.RecvBytes || f.SendCalls != f.RecvCalls) {
			t.Fatalf("cell %d→%d cat %v not conserved: send(%d, %dB) recv(%d, %dB)",
				f.Src, f.Dst, f.Category, f.SendCalls, f.SendBytes, f.RecvCalls, f.RecvBytes)
		}
	}
	if sendB != recvB || sendB == 0 {
		t.Fatalf("matrix-wide conservation broken: send %dB recv %dB", sendB, recvB)
	}
}

// Splitting a split (the 2-D grid pattern: world → rows → a column of row
// leaders) still yields exact partitions and working collectives.
func TestSplitNested(t *testing.T) {
	const size = 8 // 4×2 grid
	err := Run(size, func(c *Comm) error {
		const pl = 2
		row := c.Split(c.Rank()/pl, c.Rank())
		col := c.Split(c.Rank()%pl, c.Rank())
		if row.Size() != pl {
			return fmt.Errorf("row size = %d, want %d", row.Size(), pl)
		}
		if col.Size() != size/pl {
			return fmt.Errorf("col size = %d, want %d", col.Size(), size/pl)
		}
		// Sum of world ranks down a column, then across a row of column
		// sums, must equal the full world sum.
		colSum := col.AllreduceScalar(OpSum, float64(c.Rank()))
		rowSum := row.AllreduceScalar(OpSum, colSum)
		if want := float64(size * (size - 1) / 2); rowSum != want {
			return fmt.Errorf("grid sum = %v, want %v", rowSum, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
