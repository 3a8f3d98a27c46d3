package uoi

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"uoivar/internal/mpi"
	"uoivar/internal/trace"
)

// winnerLog is a consensus placement that keeps the winners its estimation
// reassembled.
type winnerLog struct {
	*consensus
	winners [][]float64
}

func (w *winnerLog) estimation(ph phase) ([][]float64, error) {
	winners, err := w.consensus.estimation(ph)
	w.winners = winners
	return winners, err
}

// TestConsensusReassemblyExact runs a stub problem whose cells return
// non-dyadic values through the consensus placement, in groups of three
// ranks: a sum of three identical copies scaled by 1/3 is inexact, so the
// counts and winners must travel without one and arrive bit-equal on every
// rank.
func TestConsensusReassemblyExact(t *testing.T) {
	const b1, b2, q, p = 5, 4, 3, 7
	selected := func(k, j, i int) bool { return (k+2*j+i)%3 != 0 }
	winner := func(k int) []float64 {
		w := make([]float64, p)
		for i := range w {
			w[i] = 0.1 * float64(i+1) * float64(k+1)
		}
		return w
	}
	wantCounts := make([]float64, q*p)
	wantWinners := make([][]float64, b2)
	for k := 0; k < b1; k++ {
		for j := 0; j < q; j++ {
			for i := 0; i < p; i++ {
				if selected(k, j, i) {
					wantCounts[j*p+i]++
				}
			}
		}
	}
	for k := range wantWinners {
		wantWinners[k] = winner(k)
	}
	for _, tc := range []struct {
		ranks int
		grid  GridShape
	}{{3, GridShape{1, 1}}, {6, GridShape{2, 1}}} {
		err := mpi.Run(tc.ranks, func(c *mpi.Comm) error {
			pl := newConsensus(c, tc.grid)
			pb := &problem{path: path{lambdas: make([]float64, q)}, b1: b1, b2: b2, p: p, selFrac: 1}
			pb.selCell = func(k, jLo, jHi int, _ warmFn, _ emitFn, _ trace.Span) ([]bool, error) {
				sup := make([]bool, (jHi-jLo)*p)
				for j := jLo; j < jHi; j++ {
					for i := 0; i < p; i++ {
						sup[(j-jLo)*p+i] = selected(k, j, i)
					}
				}
				return sup, nil
			}
			pb.estCell = func(k int, _ [][]int, _ trace.Span) ([]float64, error) { return winner(k), nil }
			log := &winnerLog{consensus: pl}
			if _, err := run(pb, log); err != nil {
				return err
			}
			where := fmt.Sprintf("%d ranks %dx%d rank %d", tc.ranks, tc.grid.PB, tc.grid.PL, c.Rank())
			assertBitsEqual(t, where+" counts", pl.counts, wantCounts)
			for k, w := range log.winners {
				assertBitsEqual(t, fmt.Sprintf("%s winner %d", where, k), w, wantWinners[k])
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestConsensusRejectsUnsupportedConfig: the consensus drivers refuse what
// they cannot honour — checkpointing, and for UoI_VAR a WarmBeta seed —
// with a uoi error on every rank, before any collective,
// instead of returning a fit that silently ignored it.
func TestConsensusRejectsUnsupportedConfig(t *testing.T) {
	x, y, _ := makeRegression(5, 40, 4, 2, 0.1)
	_, series := makeVARData(57, 3, 1, 120)
	ck := &CheckpointConfig{Path: filepath.Join(t.TempDir(), "fit.uoickpt")}
	lasso := LassoConfig{B1: 2, B2: 2, Q: 3, Checkpoint: ck}
	withV := func(f func(c *VARConfig)) *VARConfig { c := VARConfig{B1: 2, B2: 2, Q: 3}; f(&c); return &c }
	cases := []struct {
		name string
		fit  func(c *mpi.Comm) error
	}{
		{"LassoDistributed checkpoint", func(c *mpi.Comm) error {
			_, err := Lasso(x, y, lassoOn(&lasso, Placement{Comm: c, Partitioned: true}))
			return err
		}},
		{"LassoDistributedPhases checkpoint", func(c *mpi.Comm) error {
			_, err := Lasso(x, y, lassoOn(&lasso, Placement{Comm: c, Partitioned: true, EstX: x, EstY: y}))
			return err
		}},
		{"VARDistributed checkpoint", func(c *mpi.Comm) error {
			_, err := VAR(series, varOn(withV(func(v *VARConfig) { v.Checkpoint = ck }), Placement{Comm: c, Partitioned: true}))
			return err
		}},
		{"VARDistributed WarmBeta", func(c *mpi.Comm) error {
			_, err := VAR(series, varOn(withV(func(v *VARConfig) { v.WarmBeta = make([]float64, 4*3) }), Placement{Comm: c, Partitioned: true}))
			return err
		}},
	}
	for _, tc := range cases {
		err := mpi.Run(2, func(c *mpi.Comm) error {
			err := tc.fit(c)
			if err == nil || !strings.HasPrefix(err.Error(), "uoi: ") {
				return fmt.Errorf("rank %d: err = %v, want a uoi error", c.Rank(), err)
			}
			st := c.LocalStats()
			if calls, _, _ := st.Total(); calls != 0 {
				return fmt.Errorf("rank %d: %d mpi calls before the rejection", c.Rank(), calls)
			}
			return nil
		})
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}
