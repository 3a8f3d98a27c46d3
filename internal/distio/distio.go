// Package distio implements the paper's data read and distribution
// strategies (§III-B): the novel Randomized Data Distribution design
// (three tiers: T0 source file → T1 parallel contiguous hyperslab reads →
// T2 one-sided random redistribution) and the conventional single-reader
// baseline it is compared against in Table II.
//
// The functional implementation runs over internal/hbf (the HDF5 stand-in)
// and internal/mpi (the MPI stand-in); read and distribution phases are
// timed separately so experiments can report the Table II columns.
package distio

import (
	"fmt"
	"time"

	"uoivar/internal/hbf"
	"uoivar/internal/mat"
	"uoivar/internal/mpi"
	"uoivar/internal/resample"
)

// Block is one rank's share of a distributed dataset: Rows local rows of a
// Cols-wide matrix. For UoI_LASSO datasets the response y is the final
// column (InputData(X, y) ∈ R^{n×(p+1)}, Algorithm 1).
type Block struct {
	// Data holds the local rows, row-major.
	Data *mat.Dense
	// GlobalRows is the total row count across all ranks.
	GlobalRows int
	// ReadTime is the time this rank spent reading from the file (Tier-1,
	// or the whole serial read for the conventional strategy).
	ReadTime time.Duration
	// DistributeTime is the time spent in inter-rank redistribution
	// (Tier-2 one-sided traffic, or the conventional send loop).
	DistributeTime time.Duration
	// ReadRetries counts transient read faults this rank retried through
	// (nonzero only when a ReadOptions retry policy was in effect).
	ReadRetries int64
}

// ReadOptions configures the fault-tolerant read path: a bounded
// exponential-backoff retry policy for transient faults and an optional
// deterministic fault injector (internal/fault's Plan.IOFault).
type ReadOptions struct {
	Retry hbf.RetryPolicy
	Fault func(chunk, attempt int) error
}

// open opens path honoring the (possibly nil) read options.
func (o *ReadOptions) open(path string) (*hbf.File, error) {
	if o == nil {
		return hbf.Open(path)
	}
	return hbf.OpenWithOptions(path, o.Retry, o.Fault)
}

// XY splits the block into a design matrix (all but the last column) and a
// response vector (the last column).
func (b *Block) XY() (*mat.Dense, []float64) {
	p := b.Data.Cols - 1
	x := b.Data.SelectCols(seq(0, p))
	y := b.Data.Col(p, nil)
	return x, y
}

func seq(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

// RandomizedDistribute implements the paper's Randomized Data Distribution:
//
//	T0: the source HBF file;
//	T1: every rank reads a contiguous hyperslab (its block-striped row
//	    range) in parallel;
//	T2: rows are scattered to random owners with one-sided Puts, so each
//	    rank ends up holding a uniformly random subset of rows — the
//	    property bootstrap subsampling needs (§III-A).
//
// The random permutation is derived from seed identically on every rank, so
// no coordination traffic is needed beyond the Puts themselves.
func RandomizedDistribute(comm *mpi.Comm, path string, seed uint64) (*Block, error) {
	return RandomizedDistributeOpts(comm, path, seed, nil)
}

// RandomizedDistributeOpts is RandomizedDistribute with a fault-tolerant
// read path: transient Tier-1 read faults are retried per opts.Retry, and
// the retry count is metered in Block.ReadRetries.
func RandomizedDistributeOpts(comm *mpi.Comm, path string, seed uint64, opts *ReadOptions) (*Block, error) {
	f, err := opts.open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	meta := f.Meta
	n, cols := meta.Rows, meta.Cols
	size, rank := comm.Size(), comm.Rank()
	if n < size {
		return nil, fmt.Errorf("distio: %d rows cannot feed %d ranks", n, size)
	}

	// Tier-1: parallel contiguous read of this rank's block.
	lo, hi := mpi.RowBlock(n, size, rank)
	tRead := time.Now()
	local, err := f.ReadRows(lo, hi, nil)
	if err != nil {
		return nil, err
	}
	readTime := time.Since(tRead)

	// Tier-2: one-sided random redistribution. perm[i] is the destination
	// slot of global row i; slot s lives on the rank whose block contains s.
	tDist := time.Now()
	rng := resample.NewRNG(seed)
	perm := rng.Perm(n)
	myLo, myHi := mpi.RowBlock(n, size, rank)
	recvBuf := make([]float64, (myHi-myLo)*cols)
	win := comm.CreateWin(recvBuf)
	win.Fence()
	for i := lo; i < hi; i++ {
		slot := perm[i]
		dst := mpi.RowOwner(n, size, slot)
		dLo, _ := mpi.RowBlock(n, size, dst)
		win.Put(dst, (slot-dLo)*cols, local[(i-lo)*cols:(i-lo+1)*cols])
	}
	win.Fence()
	distTime := time.Since(tDist)

	return &Block{
		Data:           mat.NewDenseData(myHi-myLo, cols, recvBuf),
		GlobalRows:     n,
		ReadTime:       readTime,
		DistributeTime: distTime,
		ReadRetries:    f.Stats().Retries,
	}, nil
}

// ConventionalDistribute is the Table II baseline: a single core reads the
// file serially chunk by chunk (serial HDF5 with hyperslabs) and ships each
// rank its contiguous block with point-to-point sends. Its three structural
// problems — small chunked reads, repeated file access, and no parallel
// readers — are preserved.
func ConventionalDistribute(comm *mpi.Comm, path string) (*Block, error) {
	return ConventionalDistributeOpts(comm, path, nil)
}

// ConventionalDistributeOpts is ConventionalDistribute with a
// fault-tolerant read path on the single reader rank.
func ConventionalDistributeOpts(comm *mpi.Comm, path string, opts *ReadOptions) (*Block, error) {
	size, rank := comm.Size(), comm.Rank()
	const tag = 9301

	if rank == 0 {
		f, err := opts.open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		meta := f.Meta
		n, cols := meta.Rows, meta.Cols
		if n < size {
			return nil, fmt.Errorf("distio: %d rows cannot feed %d ranks", n, size)
		}
		// Announce the shape.
		shape := []float64{float64(n), float64(cols)}
		comm.Bcast(0, shape)

		var readTime, distTime time.Duration
		var myBlock []float64
		for r := 0; r < size; r++ {
			lo, hi := mpi.RowBlock(n, size, r)
			// Serial chunked read: one chunk at a time through the single
			// handle (the conventional method "can read only a small chunk
			// of data at a time").
			rows := make([]float64, 0, (hi-lo)*cols)
			for c := lo; c < hi; c += meta.ChunkRows {
				cHi := c + meta.ChunkRows
				if cHi > hi {
					cHi = hi
				}
				t0 := time.Now()
				chunk, err := f.ReadRows(c, cHi, nil)
				if err != nil {
					return nil, err
				}
				readTime += time.Since(t0)
				rows = append(rows, chunk...)
			}
			if r == 0 {
				myBlock = rows
				continue
			}
			t0 := time.Now()
			comm.Send(r, tag, rows)
			distTime += time.Since(t0)
		}
		lo, hi := mpi.RowBlock(n, size, 0)
		return &Block{
			Data:           mat.NewDenseData(hi-lo, cols, myBlock),
			GlobalRows:     n,
			ReadTime:       readTime,
			DistributeTime: distTime,
			ReadRetries:    f.Stats().Retries,
		}, nil
	}

	shape := make([]float64, 2)
	comm.Bcast(0, shape)
	n, cols := int(shape[0]), int(shape[1])
	t0 := time.Now()
	rows := comm.Recv(0, tag)
	lo, hi := mpi.RowBlock(n, size, rank)
	if len(rows) != (hi-lo)*cols {
		return nil, fmt.Errorf("distio: rank %d received %d values, want %d", rank, len(rows), (hi-lo)*cols)
	}
	return &Block{
		Data:           mat.NewDenseData(hi-lo, cols, rows),
		GlobalRows:     n,
		DistributeTime: time.Since(t0),
	}, nil
}
