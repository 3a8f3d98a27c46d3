package preprocess

import (
	"math"

	"uoivar/internal/mat"
	"uoivar/internal/mpi"
)

// FitDistributed computes a Scaler over row-distributed data: global column
// means and standard deviations (and the response mean) are agreed across
// the ranks of comm with two Allreduces. Every rank receives the identical
// Scaler, so local Transform calls produce a consistently standardized
// global design.
func FitDistributed(comm *mpi.Comm, xLocal *mat.Dense, yLocal []float64) *Scaler {
	p := xLocal.Cols
	nLocal := float64(xLocal.Rows)

	// First pass: global n, Σx per column, Σy.
	buf := make([]float64, p+2)
	for i := 0; i < xLocal.Rows; i++ {
		row := xLocal.Row(i)
		for j, v := range row {
			buf[j] += v
		}
	}
	for _, v := range yLocal {
		buf[p] += v
	}
	buf[p+1] = nLocal
	comm.Allreduce(mpi.OpSum, buf)
	nGlobal := buf[p+1]
	s := &Scaler{Mean: make([]float64, p), Scale: make([]float64, p)}
	for j := 0; j < p; j++ {
		s.Mean[j] = buf[j] / nGlobal
	}
	s.YMean = buf[p] / nGlobal

	// Second pass: Σ(x−mean)² per column.
	sq := make([]float64, p)
	for i := 0; i < xLocal.Rows; i++ {
		row := xLocal.Row(i)
		for j, v := range row {
			d := v - s.Mean[j]
			sq[j] += float64(d * d)
		}
	}
	comm.Allreduce(mpi.OpSum, sq)
	for j := 0; j < p; j++ {
		s.Scale[j] = sqrtOr1(sq[j] / nGlobal)
	}
	return s
}

func sqrtOr1(v float64) float64 {
	if v <= 0 {
		return 1
	}
	return math.Sqrt(v)
}
