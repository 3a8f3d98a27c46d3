// Package kron implements the paper's distributed Kronecker product and
// vectorization strategy (§III-B2).
//
// UoI_VAR's input series is small (MBs) but the vectorized problem
// vec(Y) = (I_p ⊗ X)·vec(B) + vec(E) explodes as ≈p³ (GBs–TBs), so no
// single node can materialize it. The paper's strategy: a small number of
// n_reader processes hold the precomputed (Y, X) blocks and expose them
// through MPI one-sided windows; every compute rank then Gets exactly the
// pieces of (I ⊗ X) and vec(Y) that fall in its row range. The identity-
// Kronecker structure means a compute rank never stores zeros: global row
// g = j·m + i of the vectorized problem is (X row i) placed in column block
// j, with response Y[i, j].
//
// Two assembly strategies are provided:
//
//   - Assemble: one Get per (equation, sample) row — the paper's measured
//     strategy, whose one-sided traffic grows with the full problem size
//     (the "distribution" phase that dominates UoI_VAR at ≥2 TB);
//   - AssembleCommAvoiding: one Get per distinct sample, re-using the row
//     across the equations a rank owns — the communication-avoiding
//     alternative the paper's Discussion proposes as future work.
package kron

import (
	"fmt"
	"time"

	"uoivar/internal/mat"
	"uoivar/internal/mpi"
	"uoivar/internal/varsim"
)

// VecBlock is one compute rank's row slice of the vectorized VAR problem.
type VecBlock struct {
	// GLo, GHi bound this rank's global rows [GLo, GHi) of the M·P-row
	// vectorized problem; global row g = j·M + i is equation j, sample i.
	GLo, GHi int
	// X holds the compact local rows: row r corresponds to global row
	// GLo+r and stores the length-Q design row of sample (GLo+r) mod M
	// (the only nonzeros of that row of I ⊗ X). NewVecFactorizationWorkers
	// relies on this contract: two equations' rows over the same samples
	// are the same rows, so their Gram blocks are the same bits.
	X *mat.Dense
	// Y holds the local responses vec(Y)[GLo:GHi].
	Y []float64
	// M is the sample count, P the equation count (process dimension), and
	// Q the per-equation column count (d·p, +1 with intercept).
	M, P, Q int
	// AssembleTime is the time this rank spent in window construction and
	// one-sided Gets (the paper's "distribution" phase).
	AssembleTime time.Duration
}

// Equation returns the equation index of local row r.
func (b *VecBlock) Equation(r int) int { return (b.GLo + r) / b.M }

// GlobalRows returns the total rows of the vectorized problem (M·P).
func (b *VecBlock) GlobalRows() int { return b.M * b.P }

// Assemble builds each rank's VecBlock with one Get per local row. local is
// this rank's design block when it is one of the nReaders reader ranks
// (holding the contiguous sample range given by reader block-striping), and
// nil otherwise. All ranks must call collectively.
func Assemble(comm *mpi.Comm, local *varsim.Design, nReaders int) (*VecBlock, error) {
	return assemble(comm, local, nReaders, false)
}

// AssembleCommAvoiding is Assemble with per-sample Get de-duplication: each
// distinct sample row is fetched once and copied into every local vec-row
// that references it.
func AssembleCommAvoiding(comm *mpi.Comm, local *varsim.Design, nReaders int) (*VecBlock, error) {
	return assemble(comm, local, nReaders, true)
}

func assemble(comm *mpi.Comm, local *varsim.Design, nReaders int, dedup bool) (*VecBlock, error) {
	size, rank := comm.Size(), comm.Rank()
	if nReaders <= 0 || nReaders > size {
		return nil, fmt.Errorf("kron: nReaders %d outside [1,%d]", nReaders, size)
	}
	isReader := rank < nReaders

	start := time.Now()

	// Validation must be collective-safe: a rank that detects a local
	// problem cannot return before its peers stop issuing collectives, so
	// every rank first agrees on validity with one Allreduce.
	valid := 1.0
	if isReader && local == nil {
		valid = 0
	}
	// Shape exchange: reader 0 announces (P, Q); M is the sum of reader
	// block sizes (readers hold contiguous block-striped sample ranges).
	shape := make([]float64, 3)
	if rank == 0 && local != nil {
		shape[0] = float64(local.X.Rows)
		shape[1] = float64(local.P)
		shape[2] = float64(local.X.Cols)
	}
	rows := 0.0
	if isReader && local != nil {
		rows = float64(local.X.Rows)
	}
	if comm.AllreduceScalar(mpi.OpMin, valid) == 0 {
		return nil, fmt.Errorf("kron: reader rank(s) missing design block")
	}
	m := int(comm.AllreduceScalar(mpi.OpSum, rows))
	comm.Bcast(0, shape)
	p, q := int(shape[1]), int(shape[2])
	sizeOK := 1.0
	if m <= 0 || p <= 0 || q <= 0 {
		sizeOK = 0
	}
	if isReader {
		lo, hi := mpi.RowBlock(m, nReaders, rank)
		if local.X.Rows != hi-lo || local.X.Cols != q || local.P != p {
			sizeOK = 0
		}
	}
	if comm.AllreduceScalar(mpi.OpMin, sizeOK) == 0 {
		return nil, fmt.Errorf("kron: inconsistent shapes (m=%d p=%d q=%d on rank %d)", m, p, q, rank)
	}

	// Readers expose [X | Y] rows through a window: sample row s (local) is
	// stored at offset s·(q+p), X row first, then the Y row.
	stride := q + p
	var winBuf []float64
	if isReader {
		nLoc := local.X.Rows
		winBuf = make([]float64, nLoc*stride)
		for s := 0; s < nLoc; s++ {
			copy(winBuf[s*stride:s*stride+q], local.X.Row(s))
			copy(winBuf[s*stride+q:(s+1)*stride], local.Y.Row(s))
		}
	}
	win := comm.CreateWin(winBuf)
	win.Fence()

	// This rank's slice of the vectorized problem.
	gLo, gHi := mpi.RowBlock(m*p, size, rank)
	nLocal := gHi - gLo
	xLocal := mat.NewDense(nLocal, q)
	yLocal := make([]float64, nLocal)

	fetch := make([]float64, stride)
	if dedup {
		// One Get per distinct sample; a sample appears in every equation,
		// so cache rows while walking the range.
		cache := map[int][]float64{}
		for r := 0; r < nLocal; r++ {
			g := gLo + r
			i := g % m
			j := g / m
			row, ok := cache[i]
			if !ok {
				reader := mpi.RowOwner(m, nReaders, i)
				rdLo, _ := mpi.RowBlock(m, nReaders, reader)
				win.Get(reader, (i-rdLo)*stride, fetch)
				row = make([]float64, stride)
				copy(row, fetch)
				cache[i] = row
			}
			copy(xLocal.Row(r), row[:q])
			yLocal[r] = row[q+j]
		}
	} else {
		for r := 0; r < nLocal; r++ {
			g := gLo + r
			i := g % m
			j := g / m
			reader := mpi.RowOwner(m, nReaders, i)
			rdLo, _ := mpi.RowBlock(m, nReaders, reader)
			win.Get(reader, (i-rdLo)*stride, fetch)
			copy(xLocal.Row(r), fetch[:q])
			yLocal[r] = fetch[q+j]
		}
	}
	win.Fence()
	win.Free()

	return &VecBlock{
		GLo: gLo, GHi: gHi,
		X: xLocal, Y: yLocal,
		M: m, P: p, Q: q,
		AssembleTime: time.Since(start),
	}, nil
}
