package admm

import (
	"fmt"
	"math"
	"testing"

	"uoivar/internal/mat"
)

// xupdateRhos are the penalties the explicit inverse is checked at: the
// default mean Gram diagonal and two far smaller ones, where G + ρI is
// conditioned like G itself.
var xupdateRhos = []float64{1, 1e-2, 1e-6}

// TestXUpdateMatchesCholeskySolve: the x-update's product with the cached
// inverse agrees with the Cholesky solve of (G + ρI)·x = v, kept as the
// oracle, to a relative 1e-10 — unblocked and blocked factors, sizes below,
// at and past a multiple of 8 and 32, ρ down to 1e-6 of the mean diagonal.
func TestXUpdateMatchesCholeskySolve(t *testing.T) {
	for _, p := range []int{1, 3, 7, 61, 256, 257} {
		x, _, _ := makeRegression(int64(p), 2*p+20, p, 1, 0)
		gram := mat.AtA(x)
		v := make([]float64, p)
		for i := range v {
			v[i] = math.Sin(float64(3*i + 1))
		}
		for _, scale := range xupdateRhos {
			rho := scale * MeanDiag(gram)
			f, err := NewFactorizationGramWorkers(gram, rho, 2)
			if err != nil {
				t.Fatal(err)
			}
			want, err := solveSPD(mat.AddRidge(gram, rho), v)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]float64, p)
			f.XUpdate(got, v)
			if d := mat.Norm2(mat.Sub(got, want)) / mat.Norm2(want); d > 1e-10 {
				t.Fatalf("p=%d ρ=%g·meanDiag: relative error %.3g against the Cholesky solve", p, scale, d)
			}
		}
	}
}

// triangularLasso is SolveRHS with the x-update the explicit inverse
// replaced — a forward and a backward substitution with the Cholesky factor
// of XᵀX + ρI — kept as the oracle of TestLassoMatchesTriangularOracle.
func triangularLasso(x *mat.Dense, y []float64, lambda, rho float64, o Options) *Result {
	ch, err := mat.NewCholesky(mat.AddRidge(mat.AtA(x), rho))
	if err != nil {
		panic(err)
	}
	aty := mat.GramVec(x, y)
	p := x.Cols
	z, u, rhs := make([]float64, p), make([]float64, p), make([]float64, p)
	sqrtP := math.Sqrt(float64(p))
	for iter := 1; iter <= o.MaxIter; iter++ {
		for i := range rhs {
			rhs[i] = aty[i] + float64(rho*(z[i]-u[i]))
		}
		xv := ch.Solve(rhs)
		zOld := append([]float64(nil), z...)
		var primal, dual float64
		for i := range z {
			z[i] = SoftThreshold(xv[i]+u[i], lambda/rho)
			u[i] += xv[i] - z[i]
			d := xv[i] - z[i]
			primal += float64(d * d)
			d = rho * (z[i] - zOld[i])
			dual += float64(d * d)
		}
		epsPrimal := float64(sqrtP*o.AbsTol) + float64(o.RelTol*math.Max(mat.Norm2(xv), mat.Norm2(z)))
		epsDual := float64(sqrtP*o.AbsTol) + float64(o.RelTol*rho*mat.Norm2(u))
		if math.Sqrt(primal) <= epsPrimal && math.Sqrt(dual) <= epsDual {
			return &Result{Beta: z, U: u, Iters: iter, Converged: true}
		}
	}
	return &Result{Beta: z, U: u, Iters: o.MaxIter}
}

// TestLassoMatchesTriangularOracle: along a λ path down to λ = 0 and at ρ
// down to 1e-6 of the mean Gram diagonal, Lasso with the explicit-inverse
// x-update takes the same number of iterations and selects the same support
// as the triangular-solve iteration, and its objective agrees to 1e-9. (At
// 1e-6 the λ > 0 solves run to the 2000-iteration cap: the two iterations
// still agree there.)
func TestLassoMatchesTriangularOracle(t *testing.T) {
	x, y, _ := makeRegression(41, 200, 24, 6, 0.3)
	meanDiag := MeanDiag(mat.AtA(x))
	lmax := LambdaMax(x, y)
	for _, scale := range xupdateRhos {
		for _, frac := range []float64{0.5, 0.1, 0.01, 0} {
			t.Run(fmt.Sprintf("rho=%g/lambda=%g", scale, frac), func(t *testing.T) {
				o := Options{Rho: scale * meanDiag, MaxIter: 2000, AbsTol: 1e-6, RelTol: 1e-4}
				got, err := Lasso(x, y, frac*lmax, &o)
				if err != nil {
					t.Fatal(err)
				}
				want := triangularLasso(x, y, frac*lmax, o.Rho, o.defaults())
				if got.Iters != want.Iters || got.Converged != want.Converged {
					t.Fatalf("iters %d (converged %v), triangular oracle %d (%v)", got.Iters, got.Converged, want.Iters, want.Converged)
				}
				if gs, ws := fmt.Sprint(Support(got.Beta, 1e-6)), fmt.Sprint(Support(want.Beta, 1e-6)); gs != ws {
					t.Fatalf("support %s, triangular oracle %s", gs, ws)
				}
				if wo := Objective(x, y, want.Beta, frac*lmax, 0); math.Abs(got.Objective-wo) > 1e-9*(1+wo) {
					t.Fatalf("objective %.17g, triangular oracle %.17g", got.Objective, wo)
				}
			})
		}
	}
}
