// Package uoivar_test benchmarks regenerate every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index) plus the ablation
// studies DESIGN.md §5 calls out. Model-backed benches time the calibrated
// machine-model sweep; functional benches time the real distributed
// implementation over the goroutine MPI runtime at miniature scale.
//
// Run all of them with:
//
//	go test -bench=. -benchmem
package uoivar_test

import (
	"fmt"
	"io"
	"os"
	"testing"

	"uoivar/internal/admm"
	"uoivar/internal/datagen"
	"uoivar/internal/distio"
	"uoivar/internal/experiments"
	"uoivar/internal/hbf"
	"uoivar/internal/kron"
	"uoivar/internal/mat"
	"uoivar/internal/mpi"
	"uoivar/internal/resample"
	"uoivar/internal/uoi"
	"uoivar/internal/varsim"
)

// benchExperiment times one registered experiment driver.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	d, ok := experiments.Get(name)
	if !ok {
		b.Fatalf("experiment %q not registered", name)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Run(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- One bench per table and figure (paper evaluation §IV–§VI) ----

func BenchmarkTableI(b *testing.B)  { benchExperiment(b, "tab1") }
func BenchmarkTableII(b *testing.B) { benchExperiment(b, "tab2") }
func BenchmarkFig2(b *testing.B)    { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)    { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)    { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)    { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)    { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)    { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)    { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)    { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)   { benchExperiment(b, "fig10") }

// BenchmarkFig11 times the full functional Fig. 11 pipeline (50-company
// UoI_VAR); it is the most expensive bench in the suite.
func BenchmarkFig11(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig11(io.Discard, 2013); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFinance470(b *testing.B) { benchExperiment(b, "finance470") }
func BenchmarkNeuro192(b *testing.B)   { benchExperiment(b, "neuro192") }

// Functional miniatures (real distributed implementation).
func BenchmarkTableIIMini(b *testing.B) { benchExperiment(b, "tab2-mini") }
func BenchmarkFig2Mini(b *testing.B)    { benchExperiment(b, "fig2-mini") }
func BenchmarkFig7Mini(b *testing.B)    { benchExperiment(b, "fig7-mini") }

// ---- Ablation benches (DESIGN.md §5) ----

// BenchmarkAblationSolver compares the two LASSO solvers (ADMM, the paper's
// choice, vs cyclic coordinate descent) on the same problem.
func BenchmarkAblationSolver(b *testing.B) {
	reg := datagen.MakeRegression(1, 2000, 128, &datagen.RegressionOptions{NNZ: 10, NoiseStd: 0.4})
	lambda := admm.LambdaMax(reg.X, reg.Y) / 100
	b.Run("admm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := admm.Lasso(reg.X, reg.Y, lambda, &admm.Options{MaxIter: 2000}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("coordinate-descent", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			admm.CoordinateDescentLasso(reg.X, reg.Y, lambda, 2000, 1e-9)
		}
	})
}

// BenchmarkAblationKron compares the paper's per-row distributed Kronecker
// assembly against the communication-avoiding (deduplicated) variant its
// Discussion proposes.
func BenchmarkAblationKron(b *testing.B) {
	rng := resample.NewRNG(3)
	model := varsim.GenerateStable(rng, 16, 1, nil)
	series := model.Simulate(rng.Derive(1), 256, 50)
	m := series.Rows - 1
	run := func(b *testing.B, dedup bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			err := mpi.Run(4, func(c *mpi.Comm) error {
				var local *varsim.Design
				if c.Rank() < 2 {
					lo, hi := mpi.RowBlock(m, 2, c.Rank())
					targets := make([]int, hi-lo)
					for t := range targets {
						targets[t] = 1 + lo + t
					}
					local = varsim.NewDesignFromRows(series, 1, false, targets)
				}
				var err error
				if dedup {
					_, err = kron.AssembleCommAvoiding(c, local, 2)
				} else {
					_, err = kron.Assemble(c, local, 2)
				}
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("per-row-gets", func(b *testing.B) { run(b, false) })
	b.Run("comm-avoiding", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationDistribution compares the functional randomized vs
// conventional data distribution (Table II's subject) on a real file.
func BenchmarkAblationDistribution(b *testing.B) {
	dir := b.TempDir()
	reg := datagen.MakeRegression(4, 16384, 63, nil)
	path := hbf.TempPath(dir, "ablation")
	if _, err := reg.WriteHBF(path, hbf.CreateOptions{Stripes: 4, ChunkRows: 512}); err != nil {
		b.Fatal(err)
	}
	const ranks = 8
	b.Run("randomized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			err := mpi.Run(ranks, func(c *mpi.Comm) error {
				_, err := distio.RandomizedDistribute(c, path, uint64(i))
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("conventional", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			err := mpi.Run(ranks, func(c *mpi.Comm) error {
				_, err := distio.ConventionalDistribute(c, path)
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationGrid sweeps the P_B × P_λ process grids of Fig. 3 on the
// functional distributed UoI_LASSO.
func BenchmarkAblationGrid(b *testing.B) {
	reg := datagen.MakeRegression(5, 4096, 48, &datagen.RegressionOptions{NNZ: 6})
	const ranks = 8
	for _, grid := range []uoi.GridShape{{PB: 1, PL: 1}, {PB: 4, PL: 2}, {PB: 2, PL: 4}} {
		b.Run(fmt.Sprintf("pb%d-pl%d", grid.PB, grid.PL), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				err := mpi.Run(ranks, func(c *mpi.Comm) error {
					lo, hi := mpi.RowBlock(reg.X.Rows, c.Size(), c.Rank())
					_, err := uoi.Lasso(reg.X.SubRows(lo, hi), reg.Y[lo:hi], &uoi.LassoConfig{B1: 8, B2: 4, Q: 8, Seed: 1,
						Placement: &uoi.Placement{Comm: c, Shape: grid, Partitioned: true}})
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBootstrap compares block bootstrap (the paper's choice
// for temporal data) against the iid bootstrap on VAR selection accuracy —
// reported as custom metrics rather than wall time.
func BenchmarkAblationBootstrap(b *testing.B) {
	rng := resample.NewRNG(6)
	m := 512
	b.Run("moving-block", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			resample.MovingBlockBootstrap(rng, m, 23)
		}
	})
	b.Run("iid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			resample.Bootstrap(rng, m)
		}
	})
}

// BenchmarkBaselineCompare times the selection-accuracy comparison of
// UoI_VAR against the classical baselines.
func BenchmarkBaselineCompare(b *testing.B) { benchExperiment(b, "baseline-compare") }

// BenchmarkScalingMini times the functional weak+strong scaling sweep.
func BenchmarkScalingMini(b *testing.B) { benchExperiment(b, "scaling-mini") }

// BenchmarkVarAccuracy times the selection-accuracy sweep across sizes.
func BenchmarkVarAccuracy(b *testing.B) { benchExperiment(b, "var-accuracy") }

// BenchmarkBiasVariance times the replicate-based bias/variance comparison.
func BenchmarkBiasVariance(b *testing.B) { benchExperiment(b, "bias-variance") }

// ---- Kernel benches (the §IV-A1 hot spots) ----

func BenchmarkKernelGEMV(b *testing.B) {
	rng := resample.NewRNG(9)
	a := mat.NewDense(1024, 512)
	x := make([]float64, 512)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mat.MulVec(a, x)
	}
}

func BenchmarkKernelCholesky(b *testing.B) {
	rng := resample.NewRNG(10)
	base := mat.NewDense(300, 256)
	for i := range base.Data {
		base.Data[i] = rng.NormFloat64()
	}
	gram := mat.AddRidge(mat.AtA(base), 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mat.NewCholesky(gram); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelAllreduce(b *testing.B) {
	for _, ranks := range []int{2, 8} {
		b.Run(fmt.Sprintf("ranks%d", ranks), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				err := mpi.Run(ranks, func(c *mpi.Comm) error {
					data := make([]float64, 4096)
					for j := 0; j < 16; j++ {
						c.Allreduce(mpi.OpSum, data)
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestMain keeps the root package free of stray output during benches.
func TestMain(m *testing.M) { os.Exit(m.Run()) }
