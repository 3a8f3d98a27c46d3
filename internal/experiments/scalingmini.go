package experiments

import (
	"fmt"
	"io"
	"time"

	"uoivar/internal/admm"
	"uoivar/internal/datagen"
	"uoivar/internal/mat"
	"uoivar/internal/mpi"
)

func init() {
	register(Driver{
		Name:        "scaling-mini",
		Description: "functional weak+strong scaling of consensus LASSO-ADMM over goroutine ranks",
		Run:         scalingMini,
	})
}

// scalingMini measures the real distributed solver at laptop scale, the
// functional companion to the model-backed Figures 4 and 6: weak scaling
// holds rows-per-rank constant while ranks double; strong scaling holds the
// problem fixed. Wall times include the per-iteration Allreduce, so the
// computation/communication trade-off is directly observable.
func scalingMini(w io.Writer) error {
	const p = 64
	lambdaDiv := 50.0

	fmt.Fprintln(w, "weak scaling: 1024 rows per rank, p=64")
	for _, ranks := range []int{1, 2, 4, 8} {
		n := 1024 * ranks
		reg := datagen.MakeRegression(uint64(ranks), n, p, &datagen.RegressionOptions{NNZ: 6, NoiseStd: 0.4})
		lambda := admm.LambdaMax(reg.X, reg.Y) / lambdaDiv
		elapsed, iters, err := timeConsensus(reg.X, reg.Y, lambda, ranks)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %2d ranks (%6d rows): %8.4fs wall, %3d ADMM iterations\n", ranks, n, elapsed.Seconds(), iters)
	}

	fmt.Fprintln(w, "strong scaling: 8192 rows total, p=64")
	reg := datagen.MakeRegression(99, 8192, p, &datagen.RegressionOptions{NNZ: 6, NoiseStd: 0.4})
	lambda := admm.LambdaMax(reg.X, reg.Y) / lambdaDiv
	for _, ranks := range []int{1, 2, 4, 8, 16} {
		elapsed, iters, err := timeConsensus(reg.X, reg.Y, lambda, ranks)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %2d ranks: %8.4fs wall, %3d ADMM iterations\n", ranks, elapsed.Seconds(), iters)
	}
	return nil
}

// timeConsensus runs one consensus LASSO over `ranks` goroutine ranks and
// returns the wall time and iteration count.
func timeConsensus(x *mat.Dense, y []float64, lambda float64, ranks int) (time.Duration, int, error) {
	start := time.Now()
	iters := 0
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		lo, hi := mpi.RowBlock(x.Rows, c.Size(), c.Rank())
		s, err := admm.NewConsensusSolverWorkers(c, x.SubRows(lo, hi), y[lo:hi], 0, 0)
		if err != nil {
			return err
		}
		res := s.Solve(lambda, &admm.Options{MaxIter: 3000})
		if c.Rank() == 0 {
			iters = res.Iters
		}
		return nil
	})
	return time.Since(start), iters, err
}
