package distio

import (
	"fmt"
	"sort"
	"testing"

	"uoivar/internal/hbf"
	"uoivar/internal/mpi"
)

// writeDataset stores a matrix whose row i is [i*cols, i*cols+1, ...] so any
// received row identifies its global origin.
func writeDataset(t *testing.T, rows, cols, chunkRows, stripes int) string {
	t.Helper()
	data := make([]float64, rows*cols)
	for i := range data {
		data[i] = float64(i)
	}
	path := hbf.TempPath(t.TempDir(), "ds")
	if _, err := hbf.Create(path, rows, cols, data, hbf.CreateOptions{ChunkRows: chunkRows, Stripes: stripes}); err != nil {
		t.Fatal(err)
	}
	return path
}

// originRow recovers the global row index encoded in a row's first element.
func originRow(row []float64, cols int) int { return int(row[0]) / cols }

// The randomized distribution ships slot row i to rank mpi.RowOwner(n,
// size, i) at its offset in that rank's mpi.RowBlock: the two must agree on
// the shapes distio distributes.
func TestRowBlockHelpers(t *testing.T) {
	for _, c := range []struct{ n, size int }{{10, 3}, {12, 4}, {7, 7}, {9, 2}} {
		for row := 0; row < c.n; row++ {
			r := mpi.RowOwner(c.n, c.size, row)
			lo, hi := mpi.RowBlock(c.n, c.size, r)
			if row < lo || row >= hi {
				t.Fatalf("n=%d size=%d: row %d mapped to rank %d block [%d,%d)", c.n, c.size, row, r, lo, hi)
			}
		}
	}
}

func TestRandomizedDistributeCoversAllRows(t *testing.T) {
	const rows, cols, ranks = 48, 5, 6
	path := writeDataset(t, rows, cols, 4, 2)
	received := make([][]int, ranks)
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		b, err := RandomizedDistribute(c, path, 99)
		if err != nil {
			return err
		}
		if b.GlobalRows != rows {
			return fmt.Errorf("GlobalRows = %d", b.GlobalRows)
		}
		var mine []int
		for i := 0; i < b.Data.Rows; i++ {
			row := b.Data.Row(i)
			// Each row must be an intact original row.
			g := originRow(row, cols)
			for j := 0; j < cols; j++ {
				if row[j] != float64(g*cols+j) {
					return fmt.Errorf("rank %d: torn row %v", c.Rank(), row)
				}
			}
			mine = append(mine, g)
		}
		received[c.Rank()] = mine
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var all []int
	for _, m := range received {
		if len(m) != rows/ranks {
			t.Fatalf("rank share %d, want %d", len(m), rows/ranks)
		}
		all = append(all, m...)
	}
	sort.Ints(all)
	for i, g := range all {
		if g != i {
			t.Fatalf("row coverage broken at %d: %v", i, all[:10])
		}
	}
}

func TestRandomizedDistributeActuallyRandomizes(t *testing.T) {
	const rows, cols, ranks = 64, 3, 4
	path := writeDataset(t, rows, cols, 8, 1)
	moved := 0
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		b, err := RandomizedDistribute(c, path, 7)
		if err != nil {
			return err
		}
		lo, hi := mpi.RowBlock(rows, ranks, c.Rank())
		count := 0
		for i := 0; i < b.Data.Rows; i++ {
			g := originRow(b.Data.Row(i), cols)
			if g < lo || g >= hi {
				count++
			}
		}
		// Every rank reports via Allreduce so the main goroutine needn't lock.
		total := c.AllreduceScalar(mpi.OpSum, float64(count))
		if c.Rank() == 0 {
			moved = int(total)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// With a random permutation, ~3/4 of rows leave their home block.
	if moved < rows/4 {
		t.Fatalf("only %d/%d rows moved; distribution not random", moved, rows)
	}
}

func TestRandomizedDistributeDeterministicInSeed(t *testing.T) {
	const rows, cols, ranks = 30, 2, 3
	path := writeDataset(t, rows, cols, 5, 1)
	collect := func(seed uint64) [][]float64 {
		out := make([][]float64, ranks)
		err := mpi.Run(ranks, func(c *mpi.Comm) error {
			b, err := RandomizedDistribute(c, path, seed)
			if err != nil {
				return err
			}
			cp := make([]float64, len(b.Data.Data))
			copy(cp, b.Data.Data)
			out[c.Rank()] = cp
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a := collect(5)
	b := collect(5)
	c := collect(6)
	for r := 0; r < ranks; r++ {
		for i := range a[r] {
			if a[r][i] != b[r][i] {
				t.Fatal("same seed must give identical distribution")
			}
		}
	}
	same := true
	for r := 0; r < ranks && same; r++ {
		for i := range a[r] {
			if a[r][i] != c[r][i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds must give different distributions")
	}
}

func TestConventionalDistributeMatchesBlocks(t *testing.T) {
	const rows, cols, ranks = 26, 4, 3
	path := writeDataset(t, rows, cols, 4, 1)
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		b, err := ConventionalDistribute(c, path)
		if err != nil {
			return err
		}
		lo, hi := mpi.RowBlock(rows, ranks, c.Rank())
		if b.Data.Rows != hi-lo {
			return fmt.Errorf("rank %d rows %d want %d", c.Rank(), b.Data.Rows, hi-lo)
		}
		for i := 0; i < b.Data.Rows; i++ {
			g := originRow(b.Data.Row(i), cols)
			if g != lo+i {
				return fmt.Errorf("rank %d row %d came from %d, want %d (conventional is contiguous)", c.Rank(), i, g, lo+i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestXYSplit(t *testing.T) {
	const rows, cols, ranks = 12, 4, 2
	path := writeDataset(t, rows, cols, 3, 1)
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		b, err := ConventionalDistribute(c, path)
		if err != nil {
			return err
		}
		x, y := b.XY()
		if x.Cols != cols-1 || len(y) != b.Data.Rows {
			return fmt.Errorf("XY shapes: %dx%d, y %d", x.Rows, x.Cols, len(y))
		}
		for i := 0; i < x.Rows; i++ {
			if y[i] != b.Data.At(i, cols-1) {
				return fmt.Errorf("y[%d] wrong", i)
			}
			if x.At(i, 0) != b.Data.At(i, 0) {
				return fmt.Errorf("x[%d,0] wrong", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTooManyRanksFails(t *testing.T) {
	path := writeDataset(t, 3, 2, 1, 1)
	err := mpi.Run(5, func(c *mpi.Comm) error {
		_, err := RandomizedDistribute(c, path, 1)
		if err == nil {
			return fmt.Errorf("expected failure with more ranks than rows")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
