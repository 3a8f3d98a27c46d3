// Package hbf implements HBF ("hierarchical binary format"), the chunked
// matrix file container this repository uses where the paper uses parallel
// HDF5 over a Lustre filesystem.
//
// The paper's I/O path needs three capabilities (§III-B1, Table II):
//
//  1. contiguous hyperslab reads, so many processes can each read a
//     contiguous row block in parallel (HDF5 hyperslabs, Tier-1);
//  2. file striping across multiple storage targets, the Lustre OST
//     striping that makes parallel reads of very large files fast;
//  3. a serial access mode that reads small chunks through a single
//     handle, to reproduce the conventional-distribution baseline.
//
// HBF provides all three: a matrix is stored row-major as float64 with a
// fixed chunk size, either in one segment file or striped round-robin by
// chunk across several segment files (simulated OSTs). os.File.ReadAt gives
// safe concurrent access for parallel readers.
package hbf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"uoivar/internal/resample"
)

// magic identifies an HBF header file.
var magic = [8]byte{'H', 'B', 'F', 'v', '1', 0, 0, 0}

const headerSize = 8 + 4*8 // magic + rows, cols, chunkRows, stripes

// Meta describes a stored matrix.
type Meta struct {
	Rows, Cols int
	// ChunkRows is the number of rows per chunk (the striping/IO unit).
	ChunkRows int
	// Stripes is the number of segment files the data is striped over
	// (1 = a single segment, the unstriped case the paper's 16 GB dataset
	// suffered from in Table II).
	Stripes int
}

// Bytes returns the payload size of the matrix in bytes.
func (m Meta) Bytes() int64 { return int64(m.Rows) * int64(m.Cols) * 8 }

// NumChunks returns the number of row chunks.
func (m Meta) NumChunks() int { return (m.Rows + m.ChunkRows - 1) / m.ChunkRows }

// ErrCorrupt reports an unreadable or inconsistent HBF file (bad magic,
// nonsensical metadata, truncated segment). Corruption is persistent: reads
// failing with ErrCorrupt are never retried.
var ErrCorrupt = errors.New("hbf: corrupt file")

// ErrRange reports a read request outside the stored matrix. Like
// ErrCorrupt it is never retried.
var ErrRange = errors.New("hbf: out of range")

// retryable reports whether a read error may be transient — anything that
// is not structural corruption or a caller mistake (injected transient
// faults and flaky-filesystem errors are the retry targets).
func retryable(err error) bool {
	return !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrRange)
}

// RetryPolicy bounds the retry loop around transient read faults with
// exponential backoff and seeded jitter. The zero value disables retries.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts including the first
	// (values below 1 mean a single attempt, i.e. no retry).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 1ms when
	// retries are enabled); it doubles per retry up to MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 50ms).
	MaxDelay time.Duration
	// Seed drives the jitter stream; the same (Seed, chunk, attempt)
	// always sleeps the same duration, keeping chaos schedules replayable.
	Seed uint64
}

func (p RetryPolicy) defaults() RetryPolicy {
	if p.BaseDelay <= 0 {
		p.BaseDelay = time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 50 * time.Millisecond
	}
	return p
}

// backoff returns the pre-retry sleep for 1-based retry r of chunk c:
// exponential growth capped at MaxDelay, scaled by a deterministic jitter
// factor in [0.5, 1.5) so simultaneous retries across ranks decorrelate.
func (p RetryPolicy) backoff(chunk, r int) time.Duration {
	d := p.BaseDelay << (r - 1)
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	rng := resample.NewRNG(p.Seed).Derive(uint64(chunk + 1)).Derive(uint64(r))
	return time.Duration((0.5 + rng.Float64()) * float64(d))
}

// ReadStats meters a File's read path: attempts actually issued, retries
// after transient faults, and faults observed (injected or genuine).
type ReadStats struct {
	Attempts int64
	Retries  int64
	Faults   int64
}

// CreateOptions configures Create.
type CreateOptions struct {
	// ChunkRows per chunk; 0 selects a chunk of about 1 MiB of rows.
	ChunkRows int
	// Stripes (simulated OSTs); 0 selects 1.
	Stripes int
}

// Create writes matrix data (row-major, rows×cols) to path.
func Create(path string, rows, cols int, data []float64, opts CreateOptions) (Meta, error) {
	if rows <= 0 || cols <= 0 {
		return Meta{}, fmt.Errorf("hbf: invalid shape %dx%d", rows, cols)
	}
	if len(data) != rows*cols {
		return Meta{}, fmt.Errorf("hbf: data length %d != %d", len(data), rows*cols)
	}
	chunkRows := opts.ChunkRows
	if chunkRows <= 0 {
		chunkRows = (1 << 20) / (cols * 8)
		if chunkRows < 1 {
			chunkRows = 1
		}
	}
	if chunkRows > rows {
		chunkRows = rows
	}
	stripes := opts.Stripes
	if stripes <= 0 {
		stripes = 1
	}
	meta := Meta{Rows: rows, Cols: cols, ChunkRows: chunkRows, Stripes: stripes}
	if maxStripes := meta.NumChunks(); stripes > maxStripes {
		stripes = maxStripes
		meta.Stripes = stripes
	}

	// Header file.
	hdr := make([]byte, headerSize)
	copy(hdr, magic[:])
	binary.LittleEndian.PutUint64(hdr[8:], uint64(rows))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(cols))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(chunkRows))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(stripes))
	if err := os.WriteFile(path, hdr, 0o644); err != nil {
		return Meta{}, err
	}

	// Segment files: chunk c goes to stripe c % stripes, appended in chunk
	// order within each stripe.
	segs := make([]*os.File, stripes)
	for s := range segs {
		f, err := os.Create(segPath(path, s))
		if err != nil {
			return Meta{}, err
		}
		segs[s] = f
	}
	defer func() {
		for _, f := range segs {
			f.Close()
		}
	}()
	buf := make([]byte, chunkRows*cols*8)
	for c := 0; c < meta.NumChunks(); c++ {
		lo := c * chunkRows
		hi := lo + chunkRows
		if hi > rows {
			hi = rows
		}
		n := (hi - lo) * cols
		encodeFloats(buf[:n*8], data[lo*cols:lo*cols+n])
		if _, err := segs[c%stripes].Write(buf[:n*8]); err != nil {
			return Meta{}, err
		}
	}
	for _, f := range segs {
		if err := f.Sync(); err != nil {
			return Meta{}, err
		}
	}
	return meta, nil
}

func segPath(path string, s int) string {
	return fmt.Sprintf("%s.s%03d", path, s)
}

// File is an open HBF matrix.
type File struct {
	Meta  Meta
	path  string
	segs  []*os.File
	retry RetryPolicy
	fault func(chunk, attempt int) error
	stats struct{ attempts, retries, faults atomic.Int64 }
}

// Open opens an HBF matrix for reading. The returned File is safe for
// concurrent reads (all reads use ReadAt).
func Open(path string) (*File, error) {
	return OpenWithOptions(path, RetryPolicy{}, nil)
}

// OpenWithOptions opens an HBF matrix with a retry policy for transient
// read faults and an optional fault injector. The injector is consulted
// before every read attempt with the chunk index (-1 for the header) and
// the 0-based attempt number; a non-nil return fails that attempt. The
// header read itself runs through the same retry loop.
func OpenWithOptions(path string, retry RetryPolicy, faultFn func(chunk, attempt int) error) (*File, error) {
	f := &File{path: path, retry: retry.defaults(), fault: faultFn}
	var hdr []byte
	err := f.attempt(-1, func() error {
		var rerr error
		hdr, rerr = os.ReadFile(path)
		return rerr
	})
	if err != nil {
		return nil, err
	}
	if len(hdr) < headerSize || [8]byte(hdr[:8]) != magic {
		return nil, fmt.Errorf("%w: bad header in %s", ErrCorrupt, path)
	}
	meta := Meta{
		Rows:      int(binary.LittleEndian.Uint64(hdr[8:])),
		Cols:      int(binary.LittleEndian.Uint64(hdr[16:])),
		ChunkRows: int(binary.LittleEndian.Uint64(hdr[24:])),
		Stripes:   int(binary.LittleEndian.Uint64(hdr[32:])),
	}
	if meta.Rows <= 0 || meta.Cols <= 0 || meta.ChunkRows <= 0 || meta.Stripes <= 0 {
		return nil, fmt.Errorf("%w: bad meta %+v", ErrCorrupt, meta)
	}
	// Reject internally inconsistent metadata before it can drive huge
	// allocations or nonsense chunk arithmetic: the writer never produces
	// more stripes than chunks, oversized chunks, or a payload that
	// overflows int64.
	if meta.ChunkRows > meta.Rows {
		return nil, fmt.Errorf("%w: chunk of %d rows exceeds %d total rows", ErrCorrupt, meta.ChunkRows, meta.Rows)
	}
	if meta.Stripes > meta.NumChunks() {
		return nil, fmt.Errorf("%w: %d stripes for %d chunks", ErrCorrupt, meta.Stripes, meta.NumChunks())
	}
	if int64(meta.Rows) > math.MaxInt64/8/int64(meta.Cols) {
		return nil, fmt.Errorf("%w: payload size overflows (%d x %d)", ErrCorrupt, meta.Rows, meta.Cols)
	}
	f.Meta = meta
	f.segs = make([]*os.File, meta.Stripes)
	for s := 0; s < meta.Stripes; s++ {
		seg, err := os.Open(segPath(path, s))
		if err != nil {
			f.Close()
			return nil, err
		}
		f.segs[s] = seg
	}
	return f, nil
}

// Stats returns the read-path counters accumulated so far.
func (f *File) Stats() ReadStats {
	return ReadStats{
		Attempts: f.stats.attempts.Load(),
		Retries:  f.stats.retries.Load(),
		Faults:   f.stats.faults.Load(),
	}
}

// attempt runs op under the retry policy for the given chunk (-1 = header):
// transient failures are retried with exponential backoff and seeded
// jitter; ErrCorrupt/ErrRange fail immediately.
func (f *File) attempt(chunk int, op func() error) error {
	attempts := f.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var last error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			f.stats.retries.Add(1)
			time.Sleep(f.retry.backoff(chunk, a))
		}
		f.stats.attempts.Add(1)
		var err error
		if f.fault != nil {
			err = f.fault(chunk, a)
		}
		if err == nil {
			err = op()
		}
		if err == nil {
			return nil
		}
		f.stats.faults.Add(1)
		if !retryable(err) {
			return err
		}
		last = err
	}
	if attempts == 1 {
		return last
	}
	return fmt.Errorf("hbf: chunk %d unreadable after %d attempts: %w", chunk, attempts, last)
}

// Close releases all segment handles.
func (f *File) Close() error {
	var first error
	for _, s := range f.segs {
		if s != nil {
			if err := s.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// chunkLocation returns the stripe and byte offset within the stripe at
// which chunk c starts.
func (f *File) chunkLocation(c int) (stripe int, offset int64) {
	m := f.Meta
	stripe = c % m.Stripes
	indexInStripe := c / m.Stripes
	// All chunks except possibly the final one are full size; the final
	// (possibly short) chunk is the last chunk globally, so every preceding
	// chunk in its stripe is full.
	offset = int64(indexInStripe) * int64(m.ChunkRows) * int64(m.Cols) * 8
	return
}

// ReadRows reads rows [lo, hi) into dst (length (hi-lo)*Cols; allocated when
// nil) and returns dst. This is the hyperslab read: a contiguous row range,
// assembled chunk by chunk from the stripes.
func (f *File) ReadRows(lo, hi int, dst []float64) ([]float64, error) {
	m := f.Meta
	if lo < 0 || hi > m.Rows || lo > hi {
		return nil, fmt.Errorf("%w: row range [%d,%d) outside %d rows", ErrRange, lo, hi, m.Rows)
	}
	want := (hi - lo) * m.Cols
	if dst == nil {
		dst = make([]float64, want)
	}
	if len(dst) != want {
		return nil, fmt.Errorf("%w: dst length %d, want %d", ErrRange, len(dst), want)
	}
	if want == 0 {
		return dst, nil
	}
	buf := make([]byte, m.ChunkRows*m.Cols*8)
	for row := lo; row < hi; {
		c := row / m.ChunkRows
		chunkLo := c * m.ChunkRows
		chunkHi := chunkLo + m.ChunkRows
		if chunkHi > m.Rows {
			chunkHi = m.Rows
		}
		readLo := row
		readHi := hi
		if readHi > chunkHi {
			readHi = chunkHi
		}
		stripe, base := f.chunkLocation(c)
		off := base + int64(readLo-chunkLo)*int64(m.Cols)*8
		nBytes := (readHi - readLo) * m.Cols * 8
		err := f.attempt(c, func() error {
			_, rerr := f.segs[stripe].ReadAt(buf[:nBytes], off)
			if rerr != nil {
				// A short read means the segment file is truncated — that
				// is corruption, not a transient fault, and never retried.
				if errors.Is(rerr, io.EOF) || errors.Is(rerr, io.ErrUnexpectedEOF) {
					return fmt.Errorf("%w: segment %d truncated reading chunk %d: %v", ErrCorrupt, stripe, c, rerr)
				}
				return rerr
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("hbf: read chunk %d: %w", c, err)
		}
		decodeFloats(dst[(readLo-lo)*m.Cols:(readHi-lo)*m.Cols], buf[:nBytes])
		row = readHi
	}
	return dst, nil
}

// ReadAll reads the entire matrix.
func (f *File) ReadAll() ([]float64, error) {
	return f.ReadRows(0, f.Meta.Rows, nil)
}

// TempPath returns a usable HBF path inside dir with the given stem.
func TempPath(dir, stem string) string {
	return filepath.Join(dir, stem+".hbf")
}

func encodeFloats(dst []byte, src []float64) {
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[i*8:], math.Float64bits(v))
	}
}

func decodeFloats(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[i*8:]))
	}
}
