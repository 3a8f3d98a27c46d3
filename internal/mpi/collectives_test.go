package mpi

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"uoivar/internal/fault"
)

func TestTreeReduceMatchesFlat(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 7, 8} {
		for _, root := range []int{0, size - 1} {
			for _, op := range []Op{OpSum, OpMax, OpMin} {
				err := Run(size, func(c *Comm) error {
					n := 17
					tree := make([]float64, n)
					flat := make([]float64, n)
					for i := range tree {
						// Integer-valued so OpSum is exact in any order.
						tree[i] = float64((c.Rank() + 1) * (i + 3) % 11)
						flat[i] = tree[i]
					}
					orig := append([]float64(nil), tree...)
					c.TreeReduce(root, op, tree)
					c.Allreduce(op, flat)
					if c.Rank() == root {
						for i := range tree {
							if tree[i] != flat[i] {
								return fmt.Errorf("size=%d root=%d i=%d: tree=%v flat=%v", size, root, i, tree[i], flat[i])
							}
						}
					} else {
						for i := range tree {
							if tree[i] != orig[i] {
								return fmt.Errorf("non-root data mutated at %d", i)
							}
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func TestTreeBcastMatchesFlat(t *testing.T) {
	for _, size := range []int{1, 2, 5, 8} {
		for _, root := range []int{0, size / 2} {
			err := Run(size, func(c *Comm) error {
				n := 9
				data := make([]float64, n)
				if c.Rank() == root {
					for i := range data {
						data[i] = float64(i) * 1.5
					}
				}
				got := c.TreeBcastV(root, data)
				for i := range got {
					if got[i] != float64(i)*1.5 {
						return fmt.Errorf("size=%d root=%d rank=%d i=%d: got %v", size, root, c.Rank(), i, got[i])
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestTreeBcastVVariableLength(t *testing.T) {
	for _, size := range []int{1, 2, 6, 8} {
		err := Run(size, func(c *Comm) error {
			root := size - 1
			var payload []float64
			if c.Rank() == root {
				payload = []float64{3, 1, 4, 1, 5, 9, 2.5}
			}
			got := c.TreeBcastV(root, payload)
			want := []float64{3, 1, 4, 1, 5, 9, 2.5}
			if len(got) != len(want) {
				return fmt.Errorf("rank %d: len=%d want %d", c.Rank(), len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("rank %d: got[%d]=%v", c.Rank(), i, got[i])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestRingAllgathervConcatenatesInRankOrder(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 8} {
		err := Run(size, func(c *Comm) error {
			// Variable counts: rank r contributes r+1 values r.x.
			mine := make([]float64, c.Rank()+1)
			for i := range mine {
				mine[i] = float64(c.Rank()) + float64(i)/10
			}
			got := c.RingAllgatherv(mine)
			var want []float64
			for r := 0; r < size; r++ {
				for i := 0; i <= r; i++ {
					want = append(want, float64(r)+float64(i)/10)
				}
			}
			if len(got) != len(want) {
				return fmt.Errorf("size=%d rank=%d: len=%d want %d", size, c.Rank(), len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("size=%d rank=%d: got[%d]=%v want %v", size, c.Rank(), i, got[i], want[i])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestRingAllgathervMatchesFlatAllgather(t *testing.T) {
	const size = 6
	err := Run(size, func(c *Comm) error {
		mine := []float64{float64(c.Rank()), math.Pi * float64(c.Rank()+1), -0.0}
		ring := c.RingAllgatherv(mine)
		flat := c.Allgather(mine)
		if len(ring) != len(flat) {
			return fmt.Errorf("len ring=%d flat=%d", len(ring), len(flat))
		}
		for i := range flat {
			if math.Float64bits(ring[i]) != math.Float64bits(flat[i]) {
				return fmt.Errorf("bit mismatch at %d: ring=%x flat=%x", i, math.Float64bits(ring[i]), math.Float64bits(flat[i]))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIRingAllgathervOverlapRounds(t *testing.T) {
	const size = 4
	const rounds = 5
	err := Run(size, func(c *Comm) error {
		var prev *GatherRequest
		var collected [][]float64
		for round := 0; round < rounds; round++ {
			payload := []float64{float64(round*size + c.Rank())}
			req := c.IRingAllgatherv(payload)
			if prev != nil {
				collected = append(collected, prev.Wait())
			}
			prev = req
		}
		collected = append(collected, prev.Wait())
		if len(collected) != rounds {
			return fmt.Errorf("collected %d rounds, want %d", len(collected), rounds)
		}
		for round, got := range collected {
			if len(got) != size {
				return fmt.Errorf("round %d: len=%d", round, len(got))
			}
			for r := 0; r < size; r++ {
				if got[r] != float64(round*size+r) {
					return fmt.Errorf("round %d: got[%d]=%v", round, r, got[r])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Tree/ring collectives meter bytes as wire-truth: each hop charged once to
// the sender. A tree reduce over R ranks must therefore record exactly
// (R−1)·n floats globally, versus the flat path's R·n.
func TestTreeRingWireMetering(t *testing.T) {
	const size, n = 8, 32
	var mu sync.Mutex
	var global Stats
	err := Run(size, func(c *Comm) error {
		data := make([]float64, n)
		for i := range data {
			data[i] = float64(c.Rank())
		}
		c.TreeReduce(0, OpSum, data)
		c.TreeBcastV(0, data)
		c.Barrier()
		if c.Rank() == 0 {
			mu.Lock()
			global = c.GlobalStats()
			mu.Unlock()
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// (size-1)*n floats for the reduce + (size-1)*n for the bcast.
	wantBytes := int64(2 * (size - 1) * n * bytesPerFloat)
	// Barriers meter 0 bytes; subtract nothing.
	if global.Bytes[CatCollective] != wantBytes {
		t.Fatalf("collective bytes = %d, want %d (wire-truth single charge)", global.Bytes[CatCollective], wantBytes)
	}
}

func TestRingAllgathervWireMetering(t *testing.T) {
	const size = 4
	var mu sync.Mutex
	var global Stats
	err := Run(size, func(c *Comm) error {
		// Rank r contributes r+1 floats; total payload S = 10.
		mine := make([]float64, c.Rank()+1)
		c.RingAllgatherv(mine)
		c.Barrier()
		if c.Rank() == 0 {
			mu.Lock()
			global = c.GlobalStats()
			mu.Unlock()
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := int64((size - 1) * 10 * bytesPerFloat)
	if global.Bytes[CatCollective] != wantBytes {
		t.Fatalf("collective bytes = %d, want %d", global.Bytes[CatCollective], wantBytes)
	}
}

// The pair matrix must conserve bytes hop-by-hop for wire-metered
// collectives: every send cell matches the corresponding recv cell.
func TestTreeRingCommMatrixConservation(t *testing.T) {
	const size = 8
	var mu sync.Mutex
	var matrix []PairFlow
	err := Run(size, func(c *Comm) error {
		data := make([]float64, 5)
		c.TreeReduce(2, OpMax, data)
		c.TreeBcastV(2, data)
		c.RingAllgatherv(make([]float64, c.Rank()%3+1))
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
	for _, f := range matrix {
		if f.Category != CatCollective {
			continue
		}
		if f.SendBytes != f.RecvBytes || f.SendCalls != f.RecvCalls {
			t.Fatalf("cell %d→%d not conserved: send(%d calls, %d B) recv(%d calls, %d B)",
				f.Src, f.Dst, f.SendCalls, f.SendBytes, f.RecvCalls, f.RecvBytes)
		}
	}
}

// A rank killed mid-collective must surface as a typed error on the
// survivors, not a hang — for the blocking tree/ring paths and for Wait on
// the non-blocking gather.
func TestTreeRingRankKillTypedError(t *testing.T) {
	cases := []struct {
		name string
		body func(c *Comm) // the collective the survivors are stuck in
	}{
		{"tree-reduce", func(c *Comm) { c.TreeReduce(0, OpSum, make([]float64, 4)) }},
		{"tree-bcast", func(c *Comm) { c.TreeBcastV(0, make([]float64, 4)) }},
		{"ring-allgatherv", func(c *Comm) { c.RingAllgatherv(make([]float64, 2)) }},
		{"iring-wait", func(c *Comm) { c.IRingAllgatherv(make([]float64, 2)).Wait() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := fault.NewPlan(4, fault.Event{Kind: fault.Crash, Rank: 1, Op: 0})
			err := RunWithOptions(4, RunOptions{
				CollectiveTimeout: 10 * time.Second,
				Fault:             plan,
			}, func(c *Comm) error {
				tc.body(c)
				return nil
			})
			if err == nil {
				t.Fatal("expected typed failure")
			}
			if !errors.Is(err, ErrRankFailed) && !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("err = %v, want ErrRankFailed/ErrInjected", err)
			}
		})
	}
}

// Labeled handles attribute their traffic per label without disturbing the
// unlabeled totals.
func TestLabeledStatsAttribution(t *testing.T) {
	const size = 4
	err := Run(size, func(c *Comm) error {
		row := c.Split(c.Rank()/2, c.Rank()).WithLabel("row")
		col := c.Split(c.Rank()%2, c.Rank()).WithLabel("col")
		row.TreeReduce(0, OpSum, make([]float64, 8))
		col.RingAllgatherv(make([]float64, 3))
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

func TestHighestPow2Below(t *testing.T) {
	cases := map[int]int{2: 1, 3: 2, 4: 2, 5: 4, 8: 4, 9: 8, 16: 8, 17: 16}
	for n, want := range cases {
		if got := highestPow2Below(n); got != want {
			t.Fatalf("highestPow2Below(%d) = %d, want %d", n, got, want)
		}
	}
}
