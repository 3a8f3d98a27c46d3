package main

import (
	"fmt"
	"os"
	"time"

	"testing"

	"uoivar/internal/datagen"
	"uoivar/internal/mpi"
	"uoivar/internal/uoi"
)

// benchGrid measures the 2-D (bootstrap × λ) grid engine at the shapes the
// acceptance bar names — a pure-λ 1×8 row and a 4×2 grid — under both the
// communication-avoiding tree/ring collectives and the flat baseline. Each
// run is one complete LassoGrid fit on a fresh world; the grid rows carry
// the runtime's wire-truth meters (bytes charged once per hop, wait = time
// blocked on peers), so the tree-vs-flat comparison inside one artifact is
// the PR's headline claim in machine-checkable form. The bench rows time
// the tree/ring mode only.
func benchGrid(r *Report, short bool) error {
	n, p, b1, b2, q := 512, 48, 8, 8, 8
	if short {
		n, p, b1, b2, q = 192, 24, 4, 4, 6
	}
	reg := datagen.MakeRegression(11, n, p, &datagen.RegressionOptions{NNZ: 6, NoiseStd: 0.3})
	cfg := &uoi.LassoConfig{B1: b1, B2: b2, Q: q, Seed: 1, KernelWorkers: 1}

	shapes := []uoi.GridShape{{PB: 1, PL: 8}, {PB: 4, PL: 2}}
	for _, shape := range shapes {
		shape := shape
		name := fmt.Sprintf("uoi/lasso-grid-%s", shape)
		for _, mode := range []string{"tree", "flat"} {
			flat := mode == "flat"
			var stats mpi.Stats
			start := time.Now()
			err := mpi.Run(shape.Ranks(), func(c *mpi.Comm) error {
				at := *cfg
				at.Placement = &uoi.Placement{Comm: c, Shape: shape, FlatCollectives: flat}
				if _, err := uoi.Lasso(reg.X, reg.Y, &at); err != nil {
					return err
				}
				c.Barrier()
				if c.Rank() == 0 {
					stats = c.GlobalStats()
				}
				return nil
			})
			if err != nil {
				return fmt.Errorf("grid %s (%s): %w", shape, mode, err)
			}
			wall := time.Since(start).Seconds()
			_, bytes, _ := stats.Total()
			row := GridResult{
				Name:           name,
				Ranks:          shape.Ranks(),
				Grid:           shape.String(),
				Collectives:    mode,
				MPIBytes:       bytes,
				MPIWaitSeconds: stats.TotalWait().Seconds(),
				WallSeconds:    wall,
			}
			r.Grid = append(r.Grid, row)
			fmt.Fprintf(os.Stderr, "%-40s %8d B on wire  %.4fs wait  %.4fs wall\n",
				name+"-"+mode, row.MPIBytes, row.MPIWaitSeconds, row.WallSeconds)
		}
		// Wall-time row for the communication-avoiding mode, alongside the
		// other uoi/* benchmarks.
		r.bench(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				err := mpi.Run(shape.Ranks(), func(c *mpi.Comm) error {
					at := *cfg
					at.Placement = &uoi.Placement{Comm: c, Shape: shape}
					_, err := uoi.Lasso(reg.X, reg.Y, &at)
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	return nil
}
