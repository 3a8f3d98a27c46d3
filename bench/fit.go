package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"

	"uoivar"
)

// fitSizes fixes one fit workload's shapes. Pool is the number of datasets
// drawn from the seed: timed fits cycle through them, so a run's medians
// and accuracy cover several draws of the generator instead of one. Hold
// rows are generated past the fitted N and kept out of the fit; they score
// its predictions.
type fitSizes struct {
	N, P, NNZ  int
	B1, B2, Q  int
	Pool, Hold int
	AuxPerOp   int
	ProbeRows  int
	F1Floor    float64
	RelErrCeil float64
}

func lassoTallSizes(short bool) fitSizes {
	if short {
		return fitSizes{N: 256, P: 24, NNZ: 4, B1: 3, B2: 2, Q: 4, Pool: 1, Hold: 128, AuxPerOp: 2, ProbeRows: 8, F1Floor: 0.05, RelErrCeil: 1}
	}
	return fitSizes{N: 8192, P: 256, NNZ: 16, B1: 8, B2: 4, Q: 12, Pool: 3, Hold: 4096, AuxPerOp: 32, ProbeRows: 4096, F1Floor: 0.15, RelErrCeil: 0.05}
}

func varNetworkSizes(short bool) fitSizes {
	if short {
		return fitSizes{N: 120, P: 6, B1: 3, B2: 2, Q: 4, Pool: 1, Hold: 64, AuxPerOp: 2, ProbeRows: 4, F1Floor: 0.05, RelErrCeil: 2}
	}
	return fitSizes{N: 600, P: 60, B1: 6, B2: 3, Q: 16, Pool: 16, Hold: 1024, AuxPerOp: 32, ProbeRows: 256, F1Floor: 0.2, RelErrCeil: 0.8}
}

// fitDiag is the part of a fit's public diagnostics the benchmark reads.
type fitDiag struct {
	selection, estimation float64 // seconds
	solves, ols, iters    int
	lambdas               []float64
}

// fitOut is one completed fit.
type fitOut struct {
	coef []float64 // scored against the generator's truth
	diag fitDiag
	art  *uoivar.ModelArtifact
	// predErr scores the fit on the dataset's held-out rows: RMSE over the
	// generator's noise level, so 1 is a perfect model.
	predErr func() float64
}

// fitCase is one dataset of a fit workload behind a uniform surface, so
// lasso_tall and var_network share one measured loop.
type fitCase struct {
	truth []float64
	// fit runs one complete fit through the public uoivar API.
	fit func() (*fitOut, error)
	// predict evaluates a (re)loaded model on the case's probe input.
	predict predictFn
	// replay drives the dataset's first selection cells through the layers
	// (traced run) for a fit with diagnostics d.
	replay func(c *runCtx, d fitDiag)
}

// predictFn evaluates a model on some fixed input.
type predictFn func(p *uoivar.Predictor) ([]float64, error)

// fitCfgSeed is the resampling seed of every fit; the data, not the
// bootstrap draw, is what --seed varies.
const fitCfgSeed = 7

func poolSeed(seed uint64, i int) uint64 { return seed*1000 + uint64(i) }

func lassoDiag(res *uoivar.LassoResult) fitDiag {
	return fitDiag{res.Diag.SelectionTime.Seconds(), res.Diag.EstimationTime.Seconds(), res.Diag.LassoFits, res.Diag.OLSFits, res.Diag.ADMMIters, res.Lambdas}
}

func varDiag(res *uoivar.VARResult) fitDiag {
	return fitDiag{res.Diag.SelectionTime.Seconds(), res.Diag.EstimationTime.Seconds(), res.Diag.LassoFits, res.Diag.OLSFits, res.Diag.ADMMIters, res.Lambdas}
}

func lassoCases(seed uint64, sz fitSizes) []fitCase {
	cases := make([]fitCase, sz.Pool)
	for i := range cases {
		reg, hold := makeRegression(poolSeed(seed, i), sz.N, sz.Hold, sz.P, sz.NNZ)
		cfg := &uoivar.LassoConfig{B1: sz.B1, B2: sz.B2, Q: sz.Q, Seed: fitCfgSeed}
		probe := reg.X.SubRows(0, sz.ProbeRows)
		cases[i] = fitCase{
			truth: reg.TrueBeta,
			fit: func() (*fitOut, error) {
				res, err := uoivar.FitLasso(reg.X, reg.Y, cfg)
				if err != nil {
					return nil, err
				}
				return &fitOut{res.Beta, lassoDiag(res), uoivar.LassoArtifact(res, cfg), func() float64 { return hold.predErr(res.Beta) }}, nil
			},
			predict: func(p *uoivar.Predictor) ([]float64, error) { return p.Predict(probe) },
			replay:  func(c *runCtx, d fitDiag) { replayLassoCells(c, reg, sz.B1, d) },
		}
	}
	return cases
}

func varCases(seed uint64, sz fitSizes) []fitCase {
	cases := make([]fitCase, sz.Pool)
	for i := range cases {
		fin := uoivar.MakeFinance(poolSeed(seed, i), sz.P, sz.N+sz.Hold, nil)
		series := fin.Series.SubRows(0, sz.N)
		cfg := &uoivar.VARConfig{Order: 1, B1: sz.B1, B2: sz.B2, Q: sz.Q, Seed: fitCfgSeed}
		cases[i] = fitCase{
			truth: fin.Model.A[0].Data,
			fit: func() (*fitOut, error) {
				res, err := uoivar.FitVAR(series, cfg)
				if err != nil {
					return nil, err
				}
				return &fitOut{res.A[0].Data, varDiag(res), uoivar.VARArtifact(res, cfg), func() float64 {
					return varPredErr(res.A[0].Data, res.Mu, fin.Series, sz.N, fin.Model.NoiseStd)
				}}, nil
			},
			predict: func(p *uoivar.Predictor) ([]float64, error) { return forecastData(p, series, sz.ProbeRows) },
			replay: func(c *runCtx, d fitDiag) {
				replayVARCells(c, varReplay{series: series, b1: sz.B1, kw: runtime.GOMAXPROCS(0), anchor: -1}, d)
			},
		}
	}
	return cases
}

func forecastData(p *uoivar.Predictor, history *uoivar.Dense, h int) ([]float64, error) {
	f, err := p.Forecast(history, h)
	if err != nil {
		return nil, err
	}
	return f.Data, nil
}

// varPredErr is the one-step forecast error of (a, mu) on series rows
// [from, end), each component over its own noise level.
func varPredErr(a, mu []float64, series *uoivar.Dense, from int, noiseStd []float64) float64 {
	p := series.Cols
	sum, n := 0.0, 0
	for t := from; t < series.Rows; t++ {
		prev, cur := series.Row(t-1), series.Row(t)
		for i := 0; i < p; i++ {
			pred := 0.0
			if mu != nil {
				pred = mu[i]
			}
			for j, x := range prev {
				pred += a[i*p+j] * x
			}
			e := (cur[i] - pred) / noiseStd[i]
			sum += e * e
			n++
		}
	}
	return math.Sqrt(sum / float64(n))
}

// loadAndPredict is the fit workloads' second op: what a serving process
// does with a fit's artifact — load it, build a predictor, predict.
func loadAndPredict(path string, predict predictFn) ([]float64, error) {
	loaded, err := uoivar.LoadModel(path)
	if err != nil {
		return nil, err
	}
	p, err := uoivar.NewPredictor(loaded)
	if err != nil {
		return nil, err
	}
	return predict(p)
}

// reloadMatches checks that the artifact saved at path loads and predicts
// exactly what the in-memory artifact predicts.
func reloadMatches(path string, art *uoivar.ModelArtifact, predict predictFn) error {
	direct, err := uoivar.NewPredictor(art)
	if err != nil {
		return err
	}
	want, err := predict(direct)
	if err != nil {
		return err
	}
	got, err := loadAndPredict(path, predict)
	if err != nil {
		return err
	}
	if d := maxAbsDiff(want, got); d != 0 {
		return fmt.Errorf("reloaded model predicts differently (max diff %g)", d)
	}
	return nil
}

// accuracy is a workload's score against the generator over its models.
// One draw of the generator in a few is a hard dataset on which UoI keeps
// almost nothing, so the score is the median over models and the floors
// apply to the medians. predErr is the end-to-end metric; F1 and relErr vary
// too much between seeds to carry a bound and are reported by the traced
// run.
type accuracy struct{ f1, relErr, predErr samples }

// add scores one model.
func (a *accuracy) add(c *runCtx, what string, coef, truth []float64, predErr float64) {
	c.rep.check(what+" coefficients finite", allFinite(coef), "non-finite coefficients")
	a.f1 = append(a.f1, uoivar.CompareSupports(truth, coef, 1e-7).F1())
	a.relErr = append(a.relErr, relErr(coef, truth))
	a.predErr = append(a.predErr, predErr)
}

// checkFloors fails the run when the typical model is broken.
func (a *accuracy) checkFloors(c *runCtx, what string, f1Floor, relErrCeil float64) {
	c.rep.check(what+" support_f1 floor", a.f1.median() >= f1Floor, "median F1 %.4f below floor %.2f", a.f1.median(), f1Floor)
	c.rep.check(what+" coef_rel_err ceiling", a.relErr.median() <= relErrCeil, "median rel err %.4f above %.2f", a.relErr.median(), relErrCeil)
}

// publishAccuracy reports the mean of the given groups' medians.
func publishAccuracy(c *runCtx, groups ...*accuracy) {
	var f1, rel, pred float64
	for _, a := range groups {
		n := float64(len(groups))
		f1, rel, pred = f1+a.f1.median()/n, rel+a.relErr.median()/n, pred+a.predErr.median()/n
	}
	c.rep.set("pred_err_ratio", pred)
	c.logf("support_f1 %.4f  coef_rel_err %.4f  pred_err_ratio %.4f  (median over models)", f1, rel, pred)
	if c.traced {
		c.rep.set("uoi.support_f1", f1)
		c.rep.set("uoi.coef_rel_err", rel)
	}
}

// runFit is the measured loop shared by lasso_tall and var_network.
func runFit(c *runCtx, sz fitSizes, makeCases func(uint64, fitSizes) []fitCase) error {
	c.detail["sizes"] = sz
	var cases []fitCase
	setup := startSetup(func() { cases = makeCases(c.seed, sz) })
	if c.traced {
		// The replay drives dataset 0's cells, so the traced loop times
		// dataset 0 only and the two can be set against each other.
		cases = cases[:1]
	}
	artPath := filepath.Join(c.tmpDir, "model.uoim")

	// One discarded warm-up fit: page faults, pools, lazy init.
	var err error
	firstS := timeIt(func() { _, err = cases[0].fit() })
	c.rep.attempt("warm-up fit", err)

	var fits, aux, sel, est samples
	var overhead overheadMeter
	last := make([]*fitOut, len(cases))
	alloc := startAllocMeter()
	dl := newDeadline(c.measureSeconds())
	for op := 0; dl.more(); op++ {
		i := op % len(cases)
		tr := c.opTracer(op)
		root := tr.start(nil, op, "harness", "op")
		var o *fitOut
		sp := tr.start(root, op, "uoi", "fit")
		t := timeIt(func() { o, err = cases[i].fit() })
		sp.end()
		c.rep.attempt("fit", err)
		if err != nil {
			root.end()
			continue
		}
		fits = append(fits, t)
		overhead.add(tr, t)
		sel, est = append(sel, o.diag.selection), append(est, o.diag.estimation)
		last[i] = o
		err = uoivar.SaveModel(artPath, o.art)
		c.rep.attempt("save artifact", err)
		for k := 0; k < sz.AuxPerOp && err == nil; k++ {
			sp := tr.start(root, op, "model", "load_and_predict")
			t := timeIt(func() { _, err = loadAndPredict(artPath, cases[i].predict) })
			sp.end()
			c.rep.attempt("load and predict", err)
			if err == nil {
				aux = append(aux, t)
			}
		}
		root.end()
		alloc.pause()
		setup.spread(dl, func() { makeCases(c.seed, sz) })
		alloc.resume()
	}
	allocMB := alloc.perOpMB(len(fits))
	if len(fits) == 0 || len(aux) == 0 {
		return fmt.Errorf("no fit completed")
	}

	// Correctness, outside the timed region.
	var acc accuracy
	for i, o := range last {
		if o == nil {
			continue // the time box ended before this dataset's turn
		}
		acc.add(c, fmt.Sprintf("dataset %d", i), o.coef, cases[i].truth, o.predErr())
		err := uoivar.SaveModel(artPath, o.art)
		if err == nil {
			err = reloadMatches(artPath, o.art, cases[i].predict)
		}
		c.rep.attempt("reload reproduces prediction", err)
	}

	c.rep.set("setup_s", setup.s.median())
	c.rep.set("op_p25_ms", 1e3*fits.p25())
	c.rep.set("aux_p25_ms", 1e3*aux.p25())
	c.rep.set("ops_per_s", 1/fits.p25())
	c.rep.set("alloc_mb_per_op", allocMB)
	c.rep.set("peak_rss_mb", setup.runPeakRSSMB())
	acc.checkFloors(c, "fits", sz.F1Floor, sz.RelErrCeil)
	publishAccuracy(c, &acc)
	c.detail["fit_s"] = fits
	c.detail["load_and_predict_s"] = aux
	c.logf("fit               %s", fits.describe())
	c.logf("load and predict  %s", aux.describe())

	if !c.traced {
		return nil
	}
	d := last[0].diag
	c.rep.set("uoi.selection_s", sel.median())
	c.rep.set("uoi.estimation_s", est.median())
	c.rep.set("uoi.other_s", fits.median()-sel.median()-est.median())
	c.rep.set("uoi.first_fit_s", firstS)
	c.rep.set("admm.solves_per_fit", float64(d.solves))
	c.rep.set("admm.iters_per_fit", float64(d.iters))
	overhead.publish(c)
	c.setModelLayer(last[0].art, artPath, cases[0].predict)
	cases[0].replay(c, d)
	return nil
}

func runLassoTall(c *runCtx) error {
	return runFit(c, lassoTallSizes(c.short), lassoCases)
}

func runVARNetwork(c *runCtx) error {
	return runFit(c, varNetworkSizes(c.short), varCases)
}
