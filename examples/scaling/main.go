// Scaling: regenerate the paper's weak/strong scaling studies.
//
// Runs the calibrated Cori-KNL machine model over the Table I
// configurations and prints Figures 4, 6, 9 and 10 as text series, then
// demonstrates a real (miniature) strong-scaling measurement of consensus
// LASSO-ADMM over the goroutine MPI runtime.
//
//	go run ./examples/scaling
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"uoivar/internal/admm"
	"uoivar/internal/datagen"
	"uoivar/internal/experiments"
	"uoivar/internal/mpi"
)

func main() {
	for _, name := range []string{"fig4", "fig6", "fig9", "fig10"} {
		d, ok := experiments.Get(name)
		if !ok {
			log.Fatalf("missing experiment %s", name)
		}
		fmt.Printf("\n======== %s — %s ========\n", name, d.Description)
		if err := d.Run(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}

	// Miniature functional strong scaling: one consensus LASSO solve on a
	// fixed problem at increasing rank counts. Wall time falls with ranks
	// until the per-iteration Allreduce overhead takes over — the same
	// computation/communication trade-off as Figure 6, observable for real.
	fmt.Println("\n======== functional mini strong scaling (fixed 8192×96 problem) ========")
	reg := datagen.MakeRegression(5, 8192, 96, &datagen.RegressionOptions{NNZ: 8, NoiseStd: 0.4})
	lambda := admm.LambdaMax(reg.X, reg.Y) / 50
	for _, ranks := range []int{1, 2, 4, 8, 16} {
		start := time.Now()
		var iters int
		err := mpi.Run(ranks, func(c *mpi.Comm) error {
			lo, hi := mpi.RowBlock(reg.X.Rows, c.Size(), c.Rank())
			s, err := admm.NewConsensusSolverWorkers(c, reg.X.SubRows(lo, hi), reg.Y[lo:hi], 0, 0)
			if err != nil {
				return err
			}
			res := s.Solve(lambda, &admm.Options{MaxIter: 2000})
			if c.Rank() == 0 {
				iters = res.Iters
			}
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%2d ranks: %8.4fs wall (%d ADMM iterations)\n", ranks, time.Since(start).Seconds(), iters)
	}
}
