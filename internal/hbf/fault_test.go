package hbf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"uoivar/internal/fault"
)

func writeTestMatrix(t *testing.T, rows, cols, stripes int) (string, []float64) {
	t.Helper()
	dir := t.TempDir()
	path := TempPath(dir, "m")
	data := make([]float64, rows*cols)
	for i := range data {
		data[i] = float64(i)
	}
	if _, err := Create(path, rows, cols, data, CreateOptions{ChunkRows: 3, Stripes: stripes}); err != nil {
		t.Fatal(err)
	}
	return path, data
}

// writeHeader writes a raw HBF header with the given meta words.
func writeHeader(t *testing.T, path string, rows, cols, chunkRows, stripes uint64) {
	t.Helper()
	hdr := make([]byte, headerSize)
	copy(hdr, magic[:])
	binary.LittleEndian.PutUint64(hdr[8:], rows)
	binary.LittleEndian.PutUint64(hdr[16:], cols)
	binary.LittleEndian.PutUint64(hdr[24:], chunkRows)
	binary.LittleEndian.PutUint64(hdr[32:], stripes)
	if err := os.WriteFile(path, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestTruncatedSegmentIsCorrupt(t *testing.T) {
	path, _ := writeTestMatrix(t, 10, 4, 2)
	// Truncate stripe 1 to half its size.
	seg := segPath(path, 1)
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
	_, err = f.ReadRows(0, 10, nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestBadMagicIsCorrupt(t *testing.T) {
	path, _ := writeTestMatrix(t, 6, 2, 1)
	hdr, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr[0] = 'X'
	if err := os.WriteFile(path, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestShortHeaderIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "short.hbf")
	if err := os.WriteFile(path, magic[:4], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestBadMetaIsCorruptNotPanic(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name                          string
		rows, cols, chunkRows, stripe uint64
	}{
		{"zero rows", 0, 3, 1, 1},
		{"zero cols", 5, 0, 1, 1},
		{"negative rows", ^uint64(0), 3, 1, 1},
		{"chunk exceeds rows", 5, 3, 1000, 1},
		{"stripes exceed chunks", 6, 3, 3, 50},
		{"payload overflow", 1 << 62, 1 << 32, 1 << 61, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, fmt.Sprintf("bad-%s.hbf", tc.name))
			writeHeader(t, path, tc.rows, tc.cols, tc.chunkRows, tc.stripe)
			if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestOutOfRangeIsTyped(t *testing.T) {
	path, _ := writeTestMatrix(t, 8, 3, 1)
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.ReadRows(-1, 4, nil); !errors.Is(err, ErrRange) {
		t.Fatalf("negative lo: %v, want ErrRange", err)
	}
	if _, err := f.ReadRows(0, 9, nil); !errors.Is(err, ErrRange) {
		t.Fatalf("hi past end: %v, want ErrRange", err)
	}
	if _, err := f.ReadRows(0, 4, make([]float64, 1)); !errors.Is(err, ErrRange) {
		t.Fatalf("bad dst: %v, want ErrRange", err)
	}
}

func TestTransientFaultIsRetried(t *testing.T) {
	path, want := writeTestMatrix(t, 10, 4, 2)
	plan := fault.NewPlan(1, fault.Event{Kind: fault.IORead, Chunk: 1, Count: 2})
	f, err := OpenWithOptions(path, RetryPolicy{MaxAttempts: 4, BaseDelay: time.Microsecond}, plan.IOFault)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := f.ReadRows(0, 10, nil)
	if err != nil {
		t.Fatalf("retried read failed: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("data[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	s := f.Stats()
	if s.Retries != 2 || s.Faults != 2 {
		t.Fatalf("stats = %+v, want 2 retries / 2 faults", s)
	}
}

func TestPersistentFaultExhaustsRetries(t *testing.T) {
	path, _ := writeTestMatrix(t, 10, 4, 1)
	plan := fault.NewPlan(1, fault.Event{Kind: fault.IORead, Chunk: -1, Count: 1 << 30})
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.retry = RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond}.defaults()
	f.fault = plan.IOFault
	_, err = f.ReadRows(0, 10, nil)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want fault.ErrInjected", err)
	}
	if s := f.Stats(); s.Retries != 2 {
		t.Fatalf("stats = %+v, want 2 retries before giving up", s)
	}
}

func TestCorruptionIsNotRetried(t *testing.T) {
	path, _ := writeTestMatrix(t, 10, 4, 1)
	seg := segPath(path, 0)
	if err := os.Truncate(seg, 8); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.retry = RetryPolicy{MaxAttempts: 5, BaseDelay: time.Microsecond}.defaults()
	if _, err := f.ReadRows(0, 10, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if s := f.Stats(); s.Retries != 0 {
		t.Fatalf("corruption was retried: %+v", s)
	}
}

func TestHeaderReadFaultRetried(t *testing.T) {
	path, _ := writeTestMatrix(t, 6, 2, 1)
	plan := fault.NewPlan(1, fault.Event{Kind: fault.IORead, Chunk: -1, Count: 1})
	f, err := OpenWithOptions(path, RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond}, plan.IOFault)
	if err != nil {
		t.Fatalf("open with transient header fault: %v", err)
	}
	f.Close()
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond, Seed: 42}.defaults()
	for r := 1; r < 10; r++ {
		a := p.backoff(3, r)
		b := p.backoff(3, r)
		if a != b {
			t.Fatalf("retry %d: backoff not deterministic (%v vs %v)", r, a, b)
		}
		if a <= 0 || a >= 2*8*time.Millisecond {
			t.Fatalf("retry %d: backoff %v out of bounds", r, a)
		}
	}
	if p.backoff(1, 1) == p.backoff(2, 1) {
		t.Fatal("different chunks should jitter differently")
	}
}
