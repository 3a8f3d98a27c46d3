package metrics

import (
	"math"
	"testing"

	"uoivar/internal/mat"
)

func TestCompareSupports(t *testing.T) {
	trueB := []float64{1, 0, -2, 0, 0.5}
	estB := []float64{0.9, 0.1, 0, 0, 0.4}
	s := CompareSupports(trueB, estB, 1e-6)
	if s.TruePositives != 2 || s.FalsePositives != 1 || s.FalseNegatives != 1 || s.TrueNegatives != 1 {
		t.Fatalf("Selection = %+v", s)
	}
	if math.Abs(s.Precision()-2.0/3.0) > 1e-12 {
		t.Fatalf("Precision = %v", s.Precision())
	}
	if math.Abs(s.Recall()-2.0/3.0) > 1e-12 {
		t.Fatalf("Recall = %v", s.Recall())
	}
	if math.Abs(s.F1()-2.0/3.0) > 1e-12 {
		t.Fatalf("F1 = %v", s.F1())
	}
}

func TestSelectionDegenerateCases(t *testing.T) {
	s := CompareSupports([]float64{0, 0}, []float64{0, 0}, 1e-6)
	if s.Precision() != 1 || s.Recall() != 1 {
		t.Fatalf("empty-support metrics: %+v", s)
	}
	if s.F1() != 1 {
		t.Fatalf("F1 = %v", s.F1())
	}
}

func TestCompareEstimates(t *testing.T) {
	trueB := []float64{2, 0, -1}
	estB := []float64{2.5, 0, -1.5}
	e := CompareEstimates(trueB, estB, 1e-9)
	if math.Abs(e.Bias-0.0) > 1e-12 { // +0.5 and −0.5 cancel
		t.Fatalf("Bias = %v", e.Bias)
	}
	if math.Abs(e.SupportRMSE-0.5) > 1e-12 {
		t.Fatalf("SupportRMSE = %v", e.SupportRMSE)
	}
	want := math.Sqrt((0.25 + 0 + 0.25) / 3)
	if math.Abs(e.RMSE-want) > 1e-12 {
		t.Fatalf("RMSE = %v", e.RMSE)
	}
}

func TestR2(t *testing.T) {
	y := []float64{1, 2, 3, 4}
	if r := R2(y, y); r != 1 {
		t.Fatalf("perfect R2 = %v", r)
	}
	mean := []float64{2.5, 2.5, 2.5, 2.5}
	if r := R2(y, mean); math.Abs(r) > 1e-12 {
		t.Fatalf("mean predictor R2 = %v", r)
	}
	konst := []float64{3, 3}
	if r := R2(konst, []float64{3, 3}); r != 1 {
		t.Fatalf("constant exact R2 = %v", r)
	}
	if r := R2(konst, []float64{1, 5}); r != 0 {
		t.Fatalf("constant inexact R2 = %v", r)
	}
}

func TestPredictionLoss(t *testing.T) {
	x := mat.NewDenseData(2, 2, []float64{1, 0, 0, 1})
	y := []float64{1, 2}
	beta := []float64{1, 0}
	if l := PredictionLoss(x, y, beta); math.Abs(l-2) > 1e-12 {
		t.Fatalf("loss = %v", l)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"CompareSupports":  func() { CompareSupports([]float64{1}, []float64{1, 2}, 0) },
		"CompareEstimates": func() { CompareEstimates([]float64{1}, []float64{1, 2}, 0) },
		"R2":               func() { R2([]float64{1}, []float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s must panic on length mismatch", name)
				}
			}()
			f()
		}()
	}
}
