package uoi

import (
	"fmt"
	"math"

	"uoivar/internal/admm"
	"uoivar/internal/mat"
	"uoivar/internal/resample"
	"uoivar/internal/varsim"
)

// BaselineResult is a fitted comparator model.
type BaselineResult struct {
	Beta   []float64 // fitted coefficients
	Lambda float64   // chosen regularization (0 for OLS/ridge-α reporting)
}

// LassoCV fits a plain LASSO with λ chosen by K-fold cross-validation — the
// primary comparator of the UoI papers ("state of the art feature selection
// ... compared with many regression algorithms (e.g., LASSO, SCAD and
// Ridge)"). The final model refits on all data at the winning λ.
func LassoCV(x *mat.Dense, y []float64, folds, q int, seed uint64) (*BaselineResult, error) {
	if folds < 2 {
		folds = 5
	}
	if q <= 0 {
		q = 16
	}
	n := x.Rows
	if n < folds {
		return nil, fmt.Errorf("uoi: %d samples for %d folds", n, folds)
	}
	lambdas := admm.LogSpaceLambdas(admm.LambdaMax(x, y), 1e-3, q)
	perm := resample.NewRNG(seed).Perm(n)
	yd := column(y)

	// Each fold solves from the statistics of its training rows and scores
	// on its evaluation rows, both read in place.
	cvLoss := make([]float64, len(lambdas))
	for f := 0; f < folds; f++ {
		var trainIdx, evalIdx []int
		for i, v := range perm {
			if i%folds == f {
				evalIdx = append(evalIdx, v)
			} else {
				trainIdx = append(trainIdx, v)
			}
		}
		gram, xty := mat.Stats(x, yd, mat.Sample{Rows: trainIdx}, 0)
		fac, err := admm.NewFactorizationGramWorkers(gram, 0, 0)
		if err != nil {
			return nil, err
		}
		var warmZ, warmU []float64
		for j, lam := range lambdas {
			r := fac.SolveRHS(xty.Data, lam, &admm.Options{WarmZ: warmZ, WarmU: warmU})
			warmZ, warmU = r.Beta, r.U
			cvLoss[j] += heldOut(x, yd, evalIdx, r.Beta)
		}
	}
	best := 0
	for j := range cvLoss {
		if cvLoss[j] < cvLoss[best] {
			best = j
		}
	}
	final, err := admm.Lasso(x, y, lambdas[best], nil)
	if err != nil {
		return nil, err
	}
	return &BaselineResult{Beta: final.Beta, Lambda: lambdas[best]}, nil
}

// LassoBIC fits a LASSO path and selects λ by the Bayesian information
// criterion n·log(RSS/n) + k·log(n), a cheaper comparator than CV.
func LassoBIC(x *mat.Dense, y []float64, q int) (*BaselineResult, error) {
	if q <= 0 {
		q = 16
	}
	n := float64(x.Rows)
	lambdas := admm.LogSpaceLambdas(admm.LambdaMax(x, y), 1e-3, q)
	yd := column(y)
	all := make([]int, x.Rows)
	for i := range all {
		all[i] = i
	}
	gram, xty := mat.Stats(x, yd, mat.Sample{}, 0)
	fac, err := admm.NewFactorizationGramWorkers(gram, 0, 0)
	if err != nil {
		return nil, err
	}
	bestBIC := math.Inf(1)
	var bestBeta []float64
	bestLambda := lambdas[0]
	var warmZ, warmU []float64
	for _, lam := range lambdas {
		r := fac.SolveRHS(xty.Data, lam, &admm.Options{WarmZ: warmZ, WarmU: warmU})
		warmZ, warmU = r.Beta, r.U
		rss := 2 * heldOut(x, yd, all, r.Beta)
		if rss <= 0 {
			rss = 1e-300
		}
		k := float64(len(admm.Support(r.Beta, 1e-7)))
		bic := float64(n*math.Log(rss/n)) + float64(k*math.Log(n))
		if bic < bestBIC {
			bestBIC = bic
			cp := make([]float64, len(r.Beta))
			copy(cp, r.Beta)
			bestBeta = cp
			bestLambda = lam
		}
	}
	return &BaselineResult{Beta: bestBeta, Lambda: bestLambda}, nil
}

// VARLassoCV is the plain-LASSO comparator for VAR models: a single LASSO
// on the vectorized problem with λ chosen by block cross-validation.
// Returns the vectorized estimate plus its partition.
func VARLassoCV(series *mat.Dense, order int, intercept bool, folds, q int, seed uint64) (*BaselineResult, []*mat.Dense, []float64, error) {
	if order <= 0 {
		order = 1
	}
	if folds < 2 {
		folds = 5
	}
	if q <= 0 {
		q = 16
	}
	full := varsim.NewDesign(series, order, intercept)
	m, p, rowsB := full.X.Rows, full.P, full.X.Cols
	lambdas := admm.LogSpaceLambdas(mat.NormInf(mat.MulAtB(full.X, full.Y).Data), 1e-3, q)
	blockLen := int(math.Ceil(math.Sqrt(float64(m))))
	rng := resample.NewRNG(seed)

	// fit solves every equation at each of lams from the statistics of the
	// design rows s names and hands each vec(B) to use.
	fit := func(s mat.Sample, lams []float64, use func(j int, beta []float64)) error {
		gram, xty := mat.Stats(full.X, full.Y, s, 0)
		fac, err := admm.NewFactorizationGramWorkers(gram, 0, 0)
		if err != nil {
			return err
		}
		for j, lam := range lams {
			beta := make([]float64, rowsB*p)
			for eq, r := range fac.SolveRHSBatch(xty, lam, nil, nil, nil, 0) {
				copy(beta[eq*rowsB:(eq+1)*rowsB], r.Beta)
			}
			use(j, beta)
		}
		return nil
	}
	cvLoss := make([]float64, len(lambdas))
	for f := 0; f < folds; f++ {
		trainIdx, evalIdx := resample.BlockTrainEvalSplit(rng.Derive(uint64(f)), m, blockLen, 1-1/float64(folds))
		err := fit(mat.Sample{Rows: trainIdx}, lambdas, func(j int, beta []float64) { cvLoss[j] += heldOut(full.X, full.Y, evalIdx, beta) })
		if err != nil {
			return nil, nil, nil, err
		}
	}
	best := 0
	for j := range cvLoss {
		if cvLoss[j] < cvLoss[best] {
			best = j
		}
	}
	// Refit on all data at the winning λ.
	var beta []float64
	if err := fit(mat.Sample{}, lambdas[best:best+1], func(_ int, b []float64) { beta = b }); err != nil {
		return nil, nil, nil, err
	}
	a, mu := full.PartitionBeta(beta)
	return &BaselineResult{Beta: beta, Lambda: lambdas[best]}, a, mu, nil
}
