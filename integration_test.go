// Integration tests: the full pipelines, end to end, exactly as a user
// would run them — generate data, write it to the HBF container, distribute
// it across simulated MPI ranks, fit, and score against the generating
// ground truth.
package uoivar_test

import (
	"math"
	"testing"

	"uoivar/internal/datagen"
	"uoivar/internal/distio"
	"uoivar/internal/hbf"
	"uoivar/internal/mat"
	"uoivar/internal/metrics"
	"uoivar/internal/mpi"
	"uoivar/internal/uoi"
	"uoivar/internal/varsim"
)

// TestPipelineLassoFromFile is the full UoI_LASSO path: synthetic data →
// striped HBF file → three-tier randomized distribution → distributed
// consensus UoI_LASSO → selection/estimation metrics.
func TestPipelineLassoFromFile(t *testing.T) {
	reg := datagen.MakeRegression(101, 2400, 60, &datagen.RegressionOptions{NNZ: 5, NoiseStd: 0.4})
	path := hbf.TempPath(t.TempDir(), "pipeline")
	if _, err := reg.WriteHBF(path, hbf.CreateOptions{Stripes: 4, ChunkRows: 128}); err != nil {
		t.Fatal(err)
	}
	const ranks = 6
	results := make([]*uoi.Result, ranks)
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		block, err := distio.RandomizedDistribute(c, path, 55)
		if err != nil {
			return err
		}
		x, y := block.XY()
		res, err := uoi.Lasso(x, y, &uoi.LassoConfig{B1: 10, B2: 5, Q: 10, LambdaRatio: 1e-2, Seed: 9,
			Placement: &uoi.Placement{Comm: c, Partitioned: true}})
		if err != nil {
			return err
		}
		results[c.Rank()] = res
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < ranks; r++ {
		for i := range results[0].Beta {
			if results[r].Beta[i] != results[0].Beta[i] {
				t.Fatalf("rank %d result differs", r)
			}
		}
	}
	sel := metrics.CompareSupports(reg.TrueBeta, results[0].Beta, 1e-6)
	if sel.FalseNegatives != 0 {
		t.Fatalf("pipeline missed true features: %+v", sel)
	}
	est := metrics.CompareEstimates(reg.TrueBeta, results[0].Beta, 1e-6)
	if est.SupportRMSE > 0.1 {
		t.Fatalf("pipeline estimation error %+v", est)
	}
}

// TestPipelineLassoRankInvariance: the same file and seed distributed over
// different rank counts must give statistically compatible answers (not
// bitwise equal — local bootstraps differ — but the same selected support
// for strong coefficients and close estimates).
func TestPipelineLassoRankInvariance(t *testing.T) {
	reg := datagen.MakeRegression(102, 2000, 40, &datagen.RegressionOptions{NNZ: 4, NoiseStd: 0.3})
	path := hbf.TempPath(t.TempDir(), "ranks")
	if _, err := reg.WriteHBF(path, hbf.CreateOptions{Stripes: 2}); err != nil {
		t.Fatal(err)
	}
	fit := func(ranks int) []float64 {
		var beta []float64
		err := mpi.Run(ranks, func(c *mpi.Comm) error {
			block, err := distio.RandomizedDistribute(c, path, 7)
			if err != nil {
				return err
			}
			x, y := block.XY()
			res, err := uoi.Lasso(x, y, &uoi.LassoConfig{B1: 8, B2: 4, Q: 8, LambdaRatio: 1e-2, Seed: 3,
				Placement: &uoi.Placement{Comm: c, Partitioned: true}})
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				beta = res.Beta
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return beta
	}
	b2 := fit(2)
	b8 := fit(8)
	for i, tv := range reg.TrueBeta {
		if tv == 0 {
			continue
		}
		if math.Abs(b2[i]-tv) > 0.2 || math.Abs(b8[i]-tv) > 0.2 {
			t.Fatalf("coef %d: 2-rank %v, 8-rank %v, true %v", i, b2[i], b8[i], tv)
		}
	}
}

// TestPipelineVARFromFile: series → HBF → readers load it → distributed
// UoI_VAR with the Kronecker assembly → Granger network vs ground truth.
func TestPipelineVARFromFile(t *testing.T) {
	fin := datagen.MakeFinance(103, 12, 900, &datagen.FinanceOptions{Sectors: 3, Hubs: 1})
	path := hbf.TempPath(t.TempDir(), "series")
	if _, err := datagen.WriteSeriesHBF(path, fin.Series, hbf.CreateOptions{}); err != nil {
		t.Fatal(err)
	}
	const ranks, readers = 4, 2
	var res *uoi.VARResult
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		// Readers load the series from the file, like the paper's n_reader
		// processes do.
		var series *mat.Dense
		if c.Rank() < readers {
			f, err := hbf.Open(path)
			if err != nil {
				return err
			}
			data, err := f.ReadAll()
			f.Close()
			if err != nil {
				return err
			}
			series = mat.NewDenseData(f.Meta.Rows, f.Meta.Cols, data)
		}
		r, err := uoi.VAR(series, &uoi.VARConfig{
			Order: 1, B1: 10, B2: 4, Q: 10, LambdaRatio: 3e-3, Seed: 4,
			Placement: &uoi.Placement{Comm: c, Partitioned: true, NReaders: readers},
		})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			res = r
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	trueBeta := varsim.FlattenModel(fin.Model.A, fin.Model.Mu, true)
	sel := metrics.CompareSupports(trueBeta, res.Beta, 1e-6)
	if sel.Precision() < 0.5 {
		t.Fatalf("VAR pipeline precision %v: %+v", sel.Precision(), sel)
	}
	edges := varsim.GrangerEdges(res.A, 1e-7, false)
	if len(edges) == 0 {
		t.Fatal("no edges recovered")
	}
	// The network must be sparse relative to complete.
	if len(edges) > 12*11/2 {
		t.Fatalf("network too dense: %d edges", len(edges))
	}
}

// TestPipelineBaselineComparison reproduces the paper's statistical claim on
// the full pipeline: UoI selects fewer (or equal) false positives than the
// cross-validated LASSO at full recall, with lower estimation error.
func TestPipelineBaselineComparison(t *testing.T) {
	reg := datagen.MakeRegression(105, 3000, 50, &datagen.RegressionOptions{NNZ: 5, NoiseStd: 0.5})
	uoiRes, err := uoi.Lasso(reg.X, reg.Y, &uoi.LassoConfig{B1: 15, B2: 8, Q: 10, LambdaRatio: 1e-2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cv, err := uoi.LassoCV(reg.X, reg.Y, 5, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	uoiSel := metrics.CompareSupports(reg.TrueBeta, uoiRes.Beta, 0.05)
	cvSel := metrics.CompareSupports(reg.TrueBeta, cv.Beta, 0.05)
	if uoiSel.FalseNegatives > 0 {
		t.Fatalf("UoI missed features: %+v", uoiSel)
	}
	if uoiSel.FalsePositives > cvSel.FalsePositives {
		t.Fatalf("UoI material FP %d > CV %d", uoiSel.FalsePositives, cvSel.FalsePositives)
	}
	uoiEst := metrics.CompareEstimates(reg.TrueBeta, uoiRes.Beta, 1e-6)
	cvEst := metrics.CompareEstimates(reg.TrueBeta, cv.Beta, 1e-6)
	if uoiEst.SupportRMSE > cvEst.SupportRMSE*1.1 {
		t.Fatalf("UoI support RMSE %v worse than CV %v", uoiEst.SupportRMSE, cvEst.SupportRMSE)
	}
}

// TestPipelineTwoPhaseReshuffle runs the complete Fig. 1c pipeline: Tier-2
// randomized distribution for selection, a fresh randomized distribution
// (another seed) for estimation, and the two-phase distributed fit.
func TestPipelineTwoPhaseReshuffle(t *testing.T) {
	reg := datagen.MakeRegression(106, 2000, 40, &datagen.RegressionOptions{NNZ: 4, NoiseStd: 0.4})
	path := hbf.TempPath(t.TempDir(), "twophase")
	if _, err := reg.WriteHBF(path, hbf.CreateOptions{Stripes: 2}); err != nil {
		t.Fatal(err)
	}
	var beta []float64
	err := mpi.Run(4, func(c *mpi.Comm) error {
		selBlock, err := distio.RandomizedDistribute(c, path, 21)
		if err != nil {
			return err
		}
		estBlock, err := distio.RandomizedDistribute(c, path, 22)
		if err != nil {
			return err
		}
		xs, ys := selBlock.XY()
		xe, ye := estBlock.XY()
		res, err := uoi.Lasso(xs, ys, &uoi.LassoConfig{B1: 8, B2: 4, Q: 8, LambdaRatio: 1e-2, Seed: 12,
			Placement: &uoi.Placement{Comm: c, Partitioned: true, EstX: xe, EstY: ye}})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			beta = res.Beta
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sel := metrics.CompareSupports(reg.TrueBeta, beta, 1e-6)
	if sel.FalseNegatives != 0 {
		t.Fatalf("two-phase pipeline missed features: %+v", sel)
	}
}
