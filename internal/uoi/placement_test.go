package uoi

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"uoivar/internal/mpi"
)

// TestPlacementRejects is the table of every combination no placement runs.
// At 1 and 3 ranks, every rank must return the same ErrPlacement, without a
// hang and — for a combination the config alone decides — before any mpi
// call.
func TestPlacementRejects(t *testing.T) {
	x, y, _ := makeRegression(5, 60, 4, 2, 0.1)
	_, series := makeVARData(57, 3, 1, 120)
	ck := func() *CheckpointConfig { return &CheckpointConfig{Path: filepath.Join(t.TempDir(), "fit.uoickpt")} }
	lassoWith := func(c *mpi.Comm, f func(*LassoConfig, *Placement)) error {
		cfg, at := LassoConfig{B1: 2, B2: 2, Q: 3}, Placement{Comm: c}
		f(&cfg, &at)
		_, err := Lasso(x, y, lassoOn(&cfg, at))
		return err
	}
	vecLen := (series.Cols + 1) * series.Cols // an order-1 vec(B) with intercept
	varWith := func(c *mpi.Comm, f func(*VARConfig, *Placement)) error {
		cfg, at := VARConfig{B1: 2, B2: 2, Q: 3}, Placement{Comm: c}
		f(&cfg, &at)
		_, err := VAR(series, varOn(&cfg, at))
		return err
	}
	cases := []struct {
		name string
		fit  func(c *mpi.Comm) error
		// split: the grid is built (two mpi.Split calls) before the data
		// decides the rejection.
		split bool
	}{
		{name: "lasso checkpoint partitioned", fit: func(c *mpi.Comm) error {
			return lassoWith(c, func(cfg *LassoConfig, at *Placement) { cfg.Checkpoint, at.Partitioned = ck(), true })
		}},
		{name: "var checkpoint partitioned", fit: func(c *mpi.Comm) error {
			return varWith(c, func(cfg *VARConfig, at *Placement) { cfg.Checkpoint, at.Partitioned = ck(), true })
		}},
		{name: "lasso checkpoint grid", fit: func(c *mpi.Comm) error {
			return lassoWith(c, func(cfg *LassoConfig, at *Placement) { cfg.Checkpoint, at.Shape = ck(), GridShape{c.Size(), 1} })
		}},
		{name: "var checkpoint grid", fit: func(c *mpi.Comm) error {
			return varWith(c, func(cfg *VARConfig, at *Placement) { cfg.Checkpoint, at.Shape = ck(), GridShape{1, c.Size()} })
		}},
		{name: "var WarmBeta partitioned", fit: func(c *mpi.Comm) error {
			return varWith(c, func(cfg *VARConfig, at *Placement) { cfg.WarmBeta, at.Partitioned = make([]float64, vecLen), true })
		}},
		{name: "var WarmBeta grid PL>1", split: true, fit: func(c *mpi.Comm) error {
			// One rank cannot hold a PL > 1 grid: there the shape is refused.
			return varWith(c, func(cfg *VARConfig, at *Placement) {
				cfg.WarmBeta, at.Shape = make([]float64, vecLen), GridShape{1, max(c.Size(), 2)}
			})
		}},
		{name: "var L2 partitioned", fit: func(c *mpi.Comm) error {
			return varWith(c, func(cfg *VARConfig, at *Placement) { cfg.L2, at.Partitioned = 500, true })
		}},
		{name: "lasso shape not dividing ranks", fit: func(c *mpi.Comm) error {
			return lassoWith(c, func(_ *LassoConfig, at *Placement) {
				at.Shape, at.Partitioned, at.Assembly = GridShape{2, 1}, true, ConsensusADMM
			})
		}},
		{name: "var shape not dividing ranks", fit: func(c *mpi.Comm) error {
			return varWith(c, func(_ *VARConfig, at *Placement) { at.Shape, at.Partitioned = GridShape{1, 2}, true })
		}},
		{name: "lasso grid not matching ranks", fit: func(c *mpi.Comm) error {
			return lassoWith(c, func(_ *LassoConfig, at *Placement) { at.Shape = GridShape{c.Size() + 1, 1} })
		}},
		{name: "lasso replicated without shape or checkpoint", fit: func(c *mpi.Comm) error {
			return lassoWith(c, func(*LassoConfig, *Placement) {})
		}},
		{name: "lasso NReaders", fit: func(c *mpi.Comm) error {
			return lassoWith(c, func(_ *LassoConfig, at *Placement) { at.NReaders, at.Partitioned = 1, true })
		}},
		{name: "var CommAvoiding grid", fit: func(c *mpi.Comm) error {
			return varWith(c, func(_ *VARConfig, at *Placement) {
				at.Assembly, at.Shape = KroneckerCommAvoiding, GridShape{c.Size(), 1}
			})
		}},
		{name: "var unknown Assembly", fit: func(c *mpi.Comm) error {
			return varWith(c, func(_ *VARConfig, at *Placement) { at.Assembly, at.Partitioned = ConsensusADMM+1, true })
		}},
		{name: "var ConsensusADMM", fit: func(c *mpi.Comm) error {
			return varWith(c, func(_ *VARConfig, at *Placement) { at.Assembly, at.Partitioned = ConsensusADMM, true })
		}},
		{name: "lasso Kronecker Assembly", fit: func(c *mpi.Comm) error {
			return lassoWith(c, func(_ *LassoConfig, at *Placement) { at.Assembly, at.Partitioned = KroneckerGets, true })
		}},
		{name: "lasso ConsensusADMM grid", fit: func(c *mpi.Comm) error {
			return lassoWith(c, func(_ *LassoConfig, at *Placement) { at.Assembly, at.Shape = ConsensusADMM, GridShape{c.Size(), 1} })
		}},
		{name: "lasso Shared PB", fit: func(c *mpi.Comm) error {
			return lassoWith(c, func(_ *LassoConfig, at *Placement) { at.Shape, at.Partitioned = GridShape{2, 1}, true })
		}},
		{name: "lasso Shared PL", fit: func(c *mpi.Comm) error {
			return lassoWith(c, func(_ *LassoConfig, at *Placement) { at.Shape, at.Partitioned = GridShape{1, 2}, true })
		}},
		{name: "var estimation block", fit: func(c *mpi.Comm) error {
			return varWith(c, func(_ *VARConfig, at *Placement) { at.EstX, at.EstY, at.Partitioned = x, y, true })
		}},
		{name: "lasso estimation block grid", fit: func(c *mpi.Comm) error {
			return lassoWith(c, func(_ *LassoConfig, at *Placement) { at.EstX, at.EstY, at.Shape = x, y, GridShape{c.Size(), 1} })
		}},
		{name: "allpairs partitioned", fit: func(c *mpi.Comm) error {
			_, err := AllPairs(series, &AllPairsConfig{Placement: &Placement{Comm: c, Partitioned: true}})
			return err
		}},
		{name: "allpairs shape", fit: func(c *mpi.Comm) error {
			_, err := AllPairs(series, &AllPairsConfig{Placement: &Placement{Comm: c, Shape: GridShape{c.Size(), 1}}})
			return err
		}},
		{name: "lasso no communicator", fit: func(c *mpi.Comm) error {
			_, err := Lasso(x, y, &LassoConfig{B1: 2, B2: 2, Q: 3, Placement: &Placement{Shape: GridShape{c.Size(), 1}}})
			return err
		}},
		{name: "allpairs no communicator", fit: func(*mpi.Comm) error {
			_, err := AllPairs(series, &AllPairsConfig{Placement: &Placement{}})
			return err
		}},
	}
	for _, ranks := range []int{1, 3} {
		for _, tc := range cases {
			errs := make([]error, ranks)
			calls := make([]int64, ranks)
			err := runBounded(t, func() error {
				return mpi.Run(ranks, func(c *mpi.Comm) error {
					errs[c.Rank()] = tc.fit(c)
					st := c.LocalStats()
					calls[c.Rank()], _, _ = st.Total()
					return nil
				})
			})
			if err != nil {
				t.Fatalf("%s at %d ranks: %v", tc.name, ranks, err)
			}
			for r, e := range errs {
				where := fmt.Sprintf("%s at %d ranks, rank %d", tc.name, ranks, r)
				switch {
				case !errors.Is(e, ErrPlacement):
					t.Errorf("%s: err = %v, want an ErrPlacement", where, e)
				case e.Error() != errs[0].Error():
					t.Errorf("%s: %q, rank 0 %q", where, e, errs[0])
				case calls[r] != 0 && !(tc.split && ranks > 1):
					t.Errorf("%s: %d mpi calls before the rejection", where, calls[r])
				}
			}
		}
	}
}

// TestPartitionedVARRejectsL2: the Kronecker consensus factorization has no
// ℓ2 term, so a partitioned VAR fit cannot honour VARConfig.L2 and must
// refuse it rather than return the unpenalized fit.
func TestPartitionedVARRejectsL2(t *testing.T) {
	_, series := makeVARData(57, 4, 1, 300)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		_, err := VAR(series, &VARConfig{Order: 1, B1: 2, B2: 2, Q: 3, L2: 500,
			Placement: &Placement{Comm: c, Partitioned: true, NReaders: 1}})
		if !errors.Is(err, ErrPlacement) {
			return fmt.Errorf("rank %d: err = %v, want an ErrPlacement", c.Rank(), err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCheckPlacement: a config's placement can be checked before any data
// is read, and without a communicator the rank-count checks wait for the
// fit.
func TestCheckPlacement(t *testing.T) {
	ck := &CheckpointConfig{Path: filepath.Join(t.TempDir(), "fit.uoickpt")}
	for _, tc := range []struct {
		name string
		err  error
		want bool
	}{
		{"lasso in process", (&LassoConfig{Checkpoint: ck}).CheckPlacement(), false},
		{"lasso grid with checkpoint", (&LassoConfig{Checkpoint: ck, Placement: &Placement{Shape: GridShape{2, 1}}}).CheckPlacement(), true},
		{"lasso grid, ranks unknown", (&LassoConfig{Placement: &Placement{Shape: GridShape{2, 1}}}).CheckPlacement(), false},
		{"lasso partitioned, ranks unknown", (&LassoConfig{Placement: &Placement{Shape: GridShape{3, 1}, Partitioned: true, Assembly: ConsensusADMM}}).CheckPlacement(), false},
		{"lasso partitioned shared with a shape", (&LassoConfig{Placement: &Placement{Shape: GridShape{1, 2}, Partitioned: true}}).CheckPlacement(), true},
		{"var partitioned L2", (&VARConfig{L2: 1, Placement: &Placement{Partitioned: true}}).CheckPlacement(), true},
		{"var journal", (&VARConfig{Checkpoint: ck, Placement: &Placement{}}).CheckPlacement(), false},
	} {
		if got := errors.Is(tc.err, ErrPlacement); got != tc.want || !got && tc.err != nil {
			t.Errorf("%s: err = %v, want ErrPlacement %v", tc.name, tc.err, tc.want)
		}
	}
}

// TestNilConfigIsZeroConfig: a nil config takes the defaults a zero one
// does, the hard intersection among them.
func TestNilConfigIsZeroConfig(t *testing.T) {
	if got, want := (*LassoConfig)(nil).defaults(), (&LassoConfig{}).defaults(); got.SelectionFrac != want.SelectionFrac || got.SelectionFrac != 1 {
		t.Errorf("nil LassoConfig SelectionFrac %v, zero config %v", got.SelectionFrac, want.SelectionFrac)
	}
	if got, want := (*VARConfig)(nil).defaults(), (&VARConfig{}).defaults(); got.SelectionFrac != want.SelectionFrac || got.SelectionFrac != 1 {
		t.Errorf("nil VARConfig SelectionFrac %v, zero config %v", got.SelectionFrac, want.SelectionFrac)
	}
}
