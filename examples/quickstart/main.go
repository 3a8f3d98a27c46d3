// Quickstart: fit UoI_LASSO on a synthetic sparse regression problem, first
// serially, then distributed across simulated MPI ranks with the paper's
// randomized data distribution, and compare both against a cross-validated
// LASSO baseline. Finally, fit a small UoI_VAR model, save it as a .uoim
// artifact, reload it, and forecast from the loaded predictor — the
// training/inference round trip that uoiserve builds on.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"uoivar"
	"uoivar/internal/datagen"
	"uoivar/internal/distio"
	"uoivar/internal/hbf"
	"uoivar/internal/metrics"
	"uoivar/internal/mpi"
	"uoivar/internal/uoi"
)

func main() {
	// 1. Generate a sparse problem: 3,000 samples, 80 features, 6 true
	//    nonzeros, moderate noise.
	reg := datagen.MakeRegression(7, 3000, 80, &datagen.RegressionOptions{NNZ: 6, NoiseStd: 0.5})
	fmt.Println("=== data ===")
	fmt.Printf("n=3000, p=80, true support size 6\n\n")

	// 2. Serial UoI_LASSO (Algorithm 1).
	res, err := uoi.Lasso(reg.X, reg.Y, &uoi.LassoConfig{B1: 20, B2: 10, Q: 12, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	report("serial UoI_LASSO", reg.TrueBeta, res.Beta)

	// 3. The same fit, distributed: write the dataset to an HBF file, spread
	//    it over 8 ranks with the three-tier randomized distribution, and run
	//    consensus ADMM per (bootstrap, λ).
	dir, err := os.MkdirTemp("", "uoi-quickstart")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := hbf.TempPath(dir, "quickstart")
	if _, err := reg.WriteHBF(path, hbf.CreateOptions{Stripes: 4}); err != nil {
		log.Fatal(err)
	}
	var dist *uoi.Result
	err = mpi.Run(8, func(c *mpi.Comm) error {
		block, err := distio.RandomizedDistribute(c, path, 11)
		if err != nil {
			return err
		}
		x, y := block.XY()
		r, err := uoi.Lasso(x, y, &uoi.LassoConfig{B1: 20, B2: 10, Q: 12, Seed: 1,
			Placement: &uoi.Placement{Comm: c, Partitioned: true}})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			dist = r
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	report("distributed UoI_LASSO (8 ranks)", reg.TrueBeta, dist.Beta)

	// 4. Baseline: plain LASSO with 5-fold cross-validation.
	cv, err := uoi.LassoCV(reg.X, reg.Y, 5, 12, 1)
	if err != nil {
		log.Fatal(err)
	}
	report("LASSO-CV baseline", reg.TrueBeta, cv.Beta)

	// 5. Train/inference split: fit UoI_VAR on a market-like series, save
	//    the fitted model as a versioned artifact, reload it, and forecast —
	//    the loaded predictor answers bit-identically to the in-memory one,
	//    and uoiserve serves the same file over HTTP.
	fmt.Println("=== model artifact round trip ===")
	fin := uoivar.MakeFinance(31, 8, 500, nil)
	varCfg := &uoivar.VARConfig{Order: 1, B1: 10, B2: 5, Q: 8, Seed: 3}
	varRes, err := uoivar.FitVAR(fin.Series, varCfg)
	if err != nil {
		log.Fatal(err)
	}
	artPath := filepath.Join(dir, "market.uoim")
	if err := uoivar.SaveModel(artPath, uoivar.VARArtifact(varRes, varCfg)); err != nil {
		log.Fatal(err)
	}
	loaded, err := uoivar.LoadModel(artPath)
	if err != nil {
		log.Fatal(err)
	}
	pred, err := uoivar.NewPredictor(loaded)
	if err != nil {
		log.Fatal(err)
	}
	fc, err := pred.Forecast(fin.Series, 5)
	if err != nil {
		log.Fatal(err)
	}
	edges, err := pred.Edges(1e-7, false)
	if err != nil {
		log.Fatal(err)
	}
	mem, err := uoivar.NewPredictor(uoivar.VARArtifact(varRes, varCfg))
	if err != nil {
		log.Fatal(err)
	}
	fcMem, err := mem.Forecast(fin.Series, 5)
	if err != nil {
		log.Fatal(err)
	}
	identical := true
	for i, v := range fc.Data {
		if fcMem.Data[i] != v {
			identical = false
			break
		}
	}
	fmt.Printf("saved %s (kind=%s, p=%d, order=%d, |support|=%d)\n",
		filepath.Base(artPath), loaded.Meta.Kind, loaded.Meta.P, loaded.Meta.Order,
		loaded.Meta.Stats.SupportSize)
	fmt.Printf("reloaded predictor: %d-step forecast, %d Granger edges, bit-identical to in-memory: %v\n",
		fc.Rows, len(edges), identical)
	fmt.Printf("serve it: uoiserve -models %s\n", dir)
}

func report(name string, trueBeta, est []float64) {
	sel := metrics.CompareSupports(trueBeta, est, 1e-6)
	selMag := metrics.CompareSupports(trueBeta, est, 0.05)
	errs := metrics.CompareEstimates(trueBeta, est, 1e-6)
	fmt.Printf("=== %s ===\n", name)
	fmt.Printf("selection: TP=%d FP=%d FN=%d (material FP at |β|>0.05: %d)\n",
		sel.TruePositives, sel.FalsePositives, sel.FalseNegatives, selMag.FalsePositives)
	fmt.Printf("estimation: support RMSE %.4f, bias %.4f\n\n", errs.SupportRMSE, errs.Bias)
}
