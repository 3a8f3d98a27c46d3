package mpi

import (
	"fmt"
	"strings"
	"testing"
)

func TestWinGet(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		local := make([]float64, 8)
		for i := range local {
			local[i] = float64(c.Rank()*100 + i)
		}
		win := c.CreateWin(local)
		win.Fence()
		// Every rank reads a slice from its right neighbour.
		nbr := (c.Rank() + 1) % c.Size()
		dst := make([]float64, 3)
		win.Get(nbr, 2, dst)
		win.Fence()
		for i := range dst {
			want := float64(nbr*100 + 2 + i)
			if dst[i] != want {
				return fmt.Errorf("rank %d Get[%d] = %v, want %v", c.Rank(), i, dst[i], want)
			}
		}
		win.Free()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWinPutDisjoint(t *testing.T) {
	// All ranks Put into disjoint ranges of rank 0's window; after the fence
	// rank 0 sees every contribution.
	const n = 4
	err := Run(n, func(c *Comm) error {
		var local []float64
		if c.Rank() == 0 {
			local = make([]float64, n*2)
		}
		win := c.CreateWin(local)
		win.Fence()
		win.Put(0, c.Rank()*2, []float64{float64(c.Rank()), float64(c.Rank()) + 0.5})
		win.Fence()
		if c.Rank() == 0 {
			for r := 0; r < n; r++ {
				if local[2*r] != float64(r) || local[2*r+1] != float64(r)+0.5 {
					return fmt.Errorf("window content %v", local)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWinHeterogeneousSizes(t *testing.T) {
	// Reader/consumer pattern from the distributed Kronecker strategy:
	// only low ranks expose data.
	err := Run(4, func(c *Comm) error {
		var local []float64
		if c.Rank() < 2 {
			local = []float64{float64(c.Rank() + 1)}
		}
		win := c.CreateWin(local)
		win.Fence()
		dst := make([]float64, 1)
		win.Get(1, 0, dst)
		win.Fence()
		if dst[0] != 2 {
			return fmt.Errorf("Get from reader = %v", dst[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWinBoundsPanic(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		win := c.CreateWin(make([]float64, 2))
		win.Fence()
		panicked := true
		if c.Rank() == 0 {
			func() {
				defer func() { panicked = recover() != nil }()
				win.Get(1, 1, make([]float64, 5))
			}()
		}
		win.Fence()
		if !panicked {
			return fmt.Errorf("expected bounds panic")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWinOneSidedStats(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		win := c.CreateWin(make([]float64, 16))
		win.Fence()
		if c.Rank() == 1 {
			win.Get(0, 0, make([]float64, 16))
		}
		win.Fence()
		if c.Rank() == 1 {
			s := c.LocalStats()
			if s.Bytes[CatOneSided] != 16*8 {
				return fmt.Errorf("one-sided bytes = %d", s.Bytes[CatOneSided])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A window created on a labeled handle attributes every call to the label —
// Put and Get included — in LocalLabelStats and on the event timeline.
func TestWinLabeled(t *testing.T) {
	recs := runRecorded(t, 2, func(c *Comm) error {
		win := c.WithLabel("row").CreateWin(make([]float64, 4))
		win.Fence()
		win.Put(1-c.Rank(), 0, []float64{1, 2})
		win.Get(1-c.Rank(), 2, make([]float64, 2))
		win.Fence()
		if got, all := c.LocalLabelStats()["row"], c.LocalStats(); got.Calls != all.Calls || got.Bytes != all.Bytes {
			return fmt.Errorf("label stats %+v, want all of %+v", got, all)
		}
		return nil
	})
	for _, e := range recs[0].Events() {
		if !strings.HasSuffix(e.Name, "@row") {
			t.Fatalf("event %q lacks the label suffix", e.Name)
		}
	}
}
