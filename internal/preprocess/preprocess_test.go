package preprocess

import (
	"math"
	"math/rand"
	"testing"

	"uoivar/internal/admm"
	"uoivar/internal/mat"
	"uoivar/internal/mpi"
)

func randomDesign(seed int64, n, p int) (*mat.Dense, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := mat.NewDense(n, p)
	for i := 0; i < n; i++ {
		for j := 0; j < p; j++ {
			// Wildly different column scales and offsets.
			x.Set(i, j, 100*float64(j+1)*rng.NormFloat64()+float64(j)*10)
		}
	}
	y := make([]float64, n)
	for i := range y {
		y[i] = 5 + 0.01*x.At(i, 0) - 0.002*x.At(i, 2) + 0.1*rng.NormFloat64()
	}
	return x, y
}

func TestFitTransformMoments(t *testing.T) {
	x, _ := randomDesign(1, 500, 4)
	s := Fit(x)
	z := s.Transform(x)
	for j := 0; j < 4; j++ {
		var mean, sq float64
		for i := 0; i < z.Rows; i++ {
			mean += z.At(i, j)
		}
		mean /= float64(z.Rows)
		for i := 0; i < z.Rows; i++ {
			d := z.At(i, j) - mean
			sq += d * d
		}
		std := math.Sqrt(sq / float64(z.Rows))
		if math.Abs(mean) > 1e-10 {
			t.Fatalf("col %d: standardized mean %v", j, mean)
		}
		if math.Abs(std-1) > 1e-10 {
			t.Fatalf("col %d: standardized std %v", j, std)
		}
	}
}

func TestConstantColumnSafe(t *testing.T) {
	x := mat.NewDense(10, 2)
	for i := 0; i < 10; i++ {
		x.Set(i, 0, 7) // constant
		x.Set(i, 1, float64(i))
	}
	s := Fit(x)
	if s.Scale[0] != 1 {
		t.Fatalf("constant column scale = %v, want 1", s.Scale[0])
	}
	z := s.Transform(x)
	for i := 0; i < 10; i++ {
		if z.At(i, 0) != 0 {
			t.Fatal("constant column must standardize to zero")
		}
	}
}

func TestInverseBetaRoundTrip(t *testing.T) {
	x, y := randomDesign(2, 400, 5)
	s := FitXY(x, y)
	xs := s.Transform(x)
	ys := s.TransformY(y)

	// Fit OLS in standardized space.
	res, err := admm.Lasso(xs, ys, 0, &admm.Options{MaxIter: 5000, AbsTol: 1e-10, RelTol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	beta, intercept := s.InverseBeta(res.Beta)
	pred := mat.MulVec(x, beta)
	for i := range pred {
		pred[i] += intercept
	}
	// Predictions in original units must match the standardized model's.
	predStd := mat.MulVec(xs, res.Beta)
	for i := range pred {
		want := predStd[i] + s.YMean
		if math.Abs(pred[i]-want) > 1e-6 {
			t.Fatalf("prediction mismatch at %d: %v vs %v", i, pred[i], want)
		}
	}
	// And they must explain y well.
	var ssRes, ssTot, mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	for i := range y {
		ssRes += (y[i] - pred[i]) * (y[i] - pred[i])
		ssTot += (y[i] - mean) * (y[i] - mean)
	}
	if r2 := 1 - ssRes/ssTot; r2 < 0.95 {
		t.Fatalf("round-trip R² = %v", r2)
	}
}

func TestStandardizationHelpsLasso(t *testing.T) {
	// On a badly scaled design, a single λ cannot treat columns fairly; the
	// standardized fit recovers the informative small-scale coefficient that
	// the raw fit misses at the same (relative) penalty.
	x, y := randomDesign(3, 600, 5)
	s := FitXY(x, y)
	xs, ys := s.Transform(x), s.TransformY(y)
	lam := admm.LambdaMax(xs, ys) / 20
	res, err := admm.Lasso(xs, ys, lam, &admm.Options{MaxIter: 3000})
	if err != nil {
		t.Fatal(err)
	}
	sup := admm.Support(res.Beta, 1e-6)
	has := map[int]bool{}
	for _, j := range sup {
		has[j] = true
	}
	if !has[0] || !has[2] {
		t.Fatalf("standardized lasso must find features 0 and 2: %v", sup)
	}
}

func TestValidationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FitXY with mismatched lengths must panic")
		}
	}()
	FitXY(mat.NewDense(3, 2), []float64{1})
}

func TestFitDistributedMatchesSerial(t *testing.T) {
	x, y := randomDesign(9, 300, 6)
	serial := FitXY(x, y)
	const ranks = 4
	scalers := make([]*Scaler, ranks)
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		lo, hi := mpi.RowBlock(x.Rows, c.Size(), c.Rank())
		s := FitDistributed(c, x.SubRows(lo, hi), y[lo:hi])
		scalers[c.Rank()] = s
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < ranks; r++ {
		s := scalers[r]
		if math.Abs(s.YMean-serial.YMean) > 1e-9 {
			t.Fatalf("rank %d YMean %v vs %v", r, s.YMean, serial.YMean)
		}
		for j := range s.Mean {
			if math.Abs(s.Mean[j]-serial.Mean[j]) > 1e-9 {
				t.Fatalf("rank %d mean[%d] %v vs %v", r, j, s.Mean[j], serial.Mean[j])
			}
			if math.Abs(s.Scale[j]-serial.Scale[j]) > 1e-9 {
				t.Fatalf("rank %d scale[%d] %v vs %v", r, j, s.Scale[j], serial.Scale[j])
			}
		}
	}
}
