package uoi

import (
	"fmt"
	"testing"

	"uoivar/internal/datagen"
	"uoivar/internal/mat"
	"uoivar/internal/metrics"
	"uoivar/internal/mpi"
	"uoivar/internal/varsim"
)

func TestVARDistributedRecoversNetwork(t *testing.T) {
	model, series := makeVARData(51, 6, 1, 600)
	const ranks = 4
	results := make([]*VARResult, ranks)
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		var s *mat.Dense
		if c.Rank() < 2 {
			s = series
		}
		res, err := VAR(s, varOn(&VARConfig{Order: 1, B1: 10, B2: 4, Q: 10, LambdaRatio: 1e-2, Seed: 5}, Placement{Comm: c, Partitioned: true, NReaders: 2}))
		if err != nil {
			return err
		}
		results[c.Rank()] = res
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Identical on all ranks.
	for r := 1; r < ranks; r++ {
		for i := range results[0].Beta {
			if results[r].Beta[i] != results[0].Beta[i] {
				t.Fatalf("rank %d disagrees at %d", r, i)
			}
		}
	}
	trueBeta := varsim.FlattenModel(model.A, model.Mu, true)
	sel := metrics.CompareSupports(trueBeta, results[0].Beta, 1e-6)
	if sel.Recall() < 0.85 {
		t.Fatalf("distributed VAR recall %v: %+v", sel.Recall(), sel)
	}
	if results[0].KronTime <= 0 {
		t.Fatal("KronTime must be recorded")
	}
	if len(results[0].A) != 1 || results[0].A[0].Rows != 6 {
		t.Fatal("partition shape wrong")
	}
}

func TestVARDistributedMatchesSerialQuality(t *testing.T) {
	model, series := makeVARData(52, 5, 1, 350)
	cfg := &VARConfig{Order: 1, B1: 8, B2: 4, Q: 8, LambdaRatio: 1e-2, Seed: 7}
	serial, err := VAR(series, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var dist *VARResult
	err = mpi.Run(3, func(c *mpi.Comm) error {
		var s *mat.Dense
		if c.Rank() < 1 {
			s = series
		}
		res, err := VAR(s, varOn(cfg, Placement{Comm: c, Partitioned: true, NReaders: 1}))
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			dist = res
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	trueBeta := varsim.FlattenModel(model.A, model.Mu, true)
	sSel := metrics.CompareSupports(trueBeta, serial.Beta, 1e-6)
	dSel := metrics.CompareSupports(trueBeta, dist.Beta, 1e-6)
	if dSel.Recall() < sSel.Recall()-0.15 {
		t.Fatalf("distributed recall %v far below serial %v", dSel.Recall(), sSel.Recall())
	}
	// Estimates on true support agree within statistical tolerance.
	for i, tv := range trueBeta {
		if tv != 0 {
			if diff := serial.Beta[i] - dist.Beta[i]; diff > 0.3 || diff < -0.3 {
				t.Fatalf("coef %d: serial %v vs distributed %v", i, serial.Beta[i], dist.Beta[i])
			}
		}
	}
}

func TestVARDistributedCommAvoidingEquivalent(t *testing.T) {
	_, series := makeVARData(53, 4, 1, 200)
	cfg := &VARConfig{Order: 1, B1: 4, B2: 2, Q: 5, Seed: 3}
	run := func(assembly Assembly) ([]float64, int64) {
		var beta []float64
		var oneSided int64
		err := mpi.Run(2, func(c *mpi.Comm) error {
			var s *mat.Dense
			if c.Rank() < 1 {
				s = series
			}
			res, err := VAR(s, varOn(cfg, Placement{Comm: c, Partitioned: true, NReaders: 1, Assembly: assembly}))
			if err != nil {
				return err
			}
			c.Barrier()
			if c.Rank() == 0 {
				beta = res.Beta
				oneSided = c.GlobalStats().Bytes[mpi.CatOneSided]
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return beta, oneSided
	}
	a, bytesNaive := run(KroneckerGets)
	b, bytesCA := run(KroneckerCommAvoiding)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("comm-avoiding assembly changed the estimate")
		}
	}
	if bytesCA >= bytesNaive {
		t.Fatalf("comm-avoiding must reduce one-sided traffic: %d vs %d", bytesCA, bytesNaive)
	}
}

func TestVARDistributedValidation(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		// Reader without series must fail.
		if _, err := VAR(nil, varOn(&VARConfig{B1: 2, B2: 2}, Placement{Comm: c, Partitioned: true, NReaders: 1})); err == nil {
			return fmt.Errorf("nil series on reader must fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVARDistributedGrid(t *testing.T) {
	model, series := makeVARData(55, 5, 1, 400)
	cfg := &VARConfig{Order: 1, B1: 8, B2: 4, Q: 8, LambdaRatio: 1e-2, Seed: 13}
	run := func(grid GridShape, ranks, readers int) *VARResult {
		t.Helper()
		var out *VARResult
		err := mpi.Run(ranks, func(c *mpi.Comm) error {
			groupSize := ranks / grid.normalize().Ranks()
			var s *mat.Dense
			// Leading `readers` ranks of every group hold the series.
			if c.Rank()%groupSize < readers {
				s = series
			}
			res, err := VAR(s, varOn(cfg, Placement{Comm: c, Partitioned: true, NReaders: readers, Shape: grid}))
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				out = res
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	flat := run(GridShape{}, 4, 2)
	grid22 := run(GridShape{PB: 2, PL: 2}, 4, 1)
	grid21 := run(GridShape{PB: 2, PL: 1}, 4, 2)

	trueBeta := varsim.FlattenModel(model.A, model.Mu, true)
	for name, r := range map[string]*VARResult{"1x1": flat, "2x2": grid22, "2x1": grid21} {
		sel := metrics.CompareSupports(trueBeta, r.Beta, 1e-6)
		if sel.Recall() < 0.8 {
			t.Fatalf("%s: recall %v too low: %+v", name, sel.Recall(), sel)
		}
		if len(r.Lambdas) != 8 {
			t.Fatalf("%s: λ grid %d", name, len(r.Lambdas))
		}
	}
	// All variants agree on the strong coefficients.
	for i, tv := range trueBeta {
		if tv == 0 {
			continue
		}
		if d := flat.Beta[i] - grid22.Beta[i]; d > 0.3 || d < -0.3 {
			t.Fatalf("coef %d: 1x1 %v vs 2x2 %v", i, flat.Beta[i], grid22.Beta[i])
		}
	}
}

func TestVARDistributedGridValidation(t *testing.T) {
	_, series := makeVARData(56, 4, 1, 120)
	err := mpi.Run(3, func(c *mpi.Comm) error {
		_, err := VAR(series, varOn(&VARConfig{B1: 2, B2: 2, Q: 3}, Placement{Comm: c, Partitioned: true, Shape: GridShape{PB: 2, PL: 1}}))
		if err == nil {
			return fmt.Errorf("indivisible grid must fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// BenchmarkVARPartitioned times a partitioned UoI_VAR fit at the dist_mix
// benchmark's VAR job shape (p=40, n=600, order 1, B1 4, B2 2, Q 8, 2 ranks,
// one reader, one kernel worker each): the default series broadcast against
// the paper's per-row Kronecker assembly.
func BenchmarkVARPartitioned(b *testing.B) {
	series := datagen.MakeFinance(1100, 40, 600, nil).Series
	cfg := &VARConfig{Order: 1, B1: 4, B2: 2, Q: 8, Seed: 1, KernelWorkers: 1}
	for _, a := range []struct {
		name     string
		assembly Assembly
	}{{"shared-series", Shared}, {"kronecker-gets", KroneckerGets}} {
		b.Run(a.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				err := mpi.Run(2, func(c *mpi.Comm) error {
					var s *mat.Dense
					if c.Rank() == 0 {
						s = series
					}
					_, err := VAR(s, varOn(cfg, Placement{Comm: c, Partitioned: true, NReaders: 1, Assembly: a.assembly}))
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
