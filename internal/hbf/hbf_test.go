package hbf

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func writeRandom(t *testing.T, rows, cols int, opts CreateOptions) (string, []float64, Meta) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(rows*1000 + cols)))
	data := make([]float64, rows*cols)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	path := TempPath(t.TempDir(), "m")
	meta, err := Create(path, rows, cols, data, opts)
	if err != nil {
		t.Fatal(err)
	}
	return path, data, meta
}

func TestRoundTripSingleStripe(t *testing.T) {
	path, data, meta := writeRandom(t, 37, 11, CreateOptions{ChunkRows: 5})
	if meta.Stripes != 1 || meta.ChunkRows != 5 {
		t.Fatalf("meta = %+v", meta)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := f.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestRoundTripStriped(t *testing.T) {
	for _, stripes := range []int{2, 3, 7} {
		path, data, meta := writeRandom(t, 53, 4, CreateOptions{ChunkRows: 4, Stripes: stripes})
		if meta.Stripes != stripes {
			t.Fatalf("stripes = %d, want %d", meta.Stripes, stripes)
		}
		f, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.ReadAll()
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		for i := range data {
			if got[i] != data[i] {
				t.Fatalf("stripes=%d: mismatch at %d", stripes, i)
			}
		}
	}
}

func TestReadRowsArbitraryRanges(t *testing.T) {
	path, data, _ := writeRandom(t, 41, 3, CreateOptions{ChunkRows: 7, Stripes: 3})
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, rg := range [][2]int{{0, 41}, {0, 1}, {40, 41}, {6, 8}, {7, 14}, {5, 30}, {13, 13}} {
		got, err := f.ReadRows(rg[0], rg[1], nil)
		if err != nil {
			t.Fatalf("range %v: %v", rg, err)
		}
		want := data[rg[0]*3 : rg[1]*3]
		if len(got) != len(want) {
			t.Fatalf("range %v: len %d want %d", rg, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("range %v: mismatch at %d", rg, i)
			}
		}
	}
}

func TestReadRowsBounds(t *testing.T) {
	path, _, _ := writeRandom(t, 10, 2, CreateOptions{})
	f, _ := Open(path)
	defer f.Close()
	if _, err := f.ReadRows(-1, 5, nil); err == nil {
		t.Fatal("negative lo must fail")
	}
	if _, err := f.ReadRows(0, 11, nil); err == nil {
		t.Fatal("hi beyond rows must fail")
	}
	if _, err := f.ReadRows(5, 3, nil); err == nil {
		t.Fatal("inverted range must fail")
	}
	if _, err := f.ReadRows(0, 5, make([]float64, 3)); err == nil {
		t.Fatal("wrong dst length must fail")
	}
}

func TestConcurrentParallelReads(t *testing.T) {
	// Tier-1 pattern: many readers each pull a disjoint contiguous block.
	path, data, _ := writeRandom(t, 128, 5, CreateOptions{ChunkRows: 8, Stripes: 4})
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const readers = 16
	var wg sync.WaitGroup
	errs := make([]error, readers)
	per := 128 / readers
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			lo, hi := r*per, (r+1)*per
			got, err := f.ReadRows(lo, hi, nil)
			if err != nil {
				errs[r] = err
				return
			}
			for i := range got {
				if got[i] != data[lo*5+i] {
					errs[r] = fmt.Errorf("reader %d mismatch at %d", r, i)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestCreateValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(filepath.Join(dir, "x.hbf"), 0, 3, nil, CreateOptions{}); err == nil {
		t.Fatal("zero rows must fail")
	}
	if _, err := Create(filepath.Join(dir, "x.hbf"), 2, 2, make([]float64, 3), CreateOptions{}); err == nil {
		t.Fatal("bad data length must fail")
	}
}

func TestStripesClampedToChunks(t *testing.T) {
	// 10 rows with chunkRows=5 → 2 chunks; asking for 8 stripes must clamp.
	path, _, meta := writeRandom(t, 10, 2, CreateOptions{ChunkRows: 5, Stripes: 8})
	if meta.Stripes != 2 {
		t.Fatalf("stripes = %d, want clamp to 2", meta.Stripes)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
}

func TestOpenRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "junk.hbf")
	if err := os.WriteFile(p, []byte("not an hbf file at all........."), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(p); err == nil {
		t.Fatal("garbage must not open")
	}
	if _, err := Open(filepath.Join(dir, "missing.hbf")); err == nil {
		t.Fatal("missing file must not open")
	}
}

func TestMetaHelpers(t *testing.T) {
	m := Meta{Rows: 10, Cols: 4, ChunkRows: 3, Stripes: 2}
	if m.Bytes() != 10*4*8 {
		t.Fatalf("Bytes = %d", m.Bytes())
	}
	if m.NumChunks() != 4 {
		t.Fatalf("NumChunks = %d", m.NumChunks())
	}
}

func TestDefaultChunkRows(t *testing.T) {
	// Very wide matrix: default chunk must still be ≥ 1 row.
	path, data, meta := writeRandom(t, 3, 200000, CreateOptions{})
	if meta.ChunkRows < 1 {
		t.Fatalf("ChunkRows = %d", meta.ChunkRows)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := f.ReadRows(1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != data[200000] {
		t.Fatal("wide row read mismatch")
	}
}

func TestTruncatedSegmentFails(t *testing.T) {
	// Failure injection: a segment file losing data must surface a read
	// error, not silent corruption.
	path, _, meta := writeRandom(t, 64, 4, CreateOptions{ChunkRows: 8, Stripes: 2})
	seg := segPath(path, meta.Stripes-1)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()/2); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.ReadAll(); err == nil {
		t.Fatal("reading a truncated segment must fail")
	}
	// Early rows on the intact stripe still read fine.
	if _, err := f.ReadRows(0, 8, nil); err != nil {
		t.Fatalf("intact chunk read failed: %v", err)
	}
}

func TestMissingSegmentFailsOpen(t *testing.T) {
	path, _, meta := writeRandom(t, 32, 3, CreateOptions{ChunkRows: 4, Stripes: 4})
	if err := os.Remove(segPath(path, meta.Stripes-1)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("missing segment must fail Open")
	}
}
