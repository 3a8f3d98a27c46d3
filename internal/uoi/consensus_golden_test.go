package uoi

import (
	"flag"
	"fmt"
	"sort"
	"strings"
	"testing"

	"uoivar/internal/mat"
	"uoivar/internal/mpi"
)

// The consensus golden table pins the drivers whose data is distributed by
// rows and whose cells are consensus-ADMM solves — partitioned Lasso at
// Assembly ConsensusADMM, with and without an estimation block, and
// partitioned VAR at the Kronecker Assemblies — the way
// placements_golden_test.go pins the replicated-data placements: per row the
// FNV-1a hash of Beta (which every rank must return bit-identically), the
// Diag work counters per rank, and mpi calls/bytes summed over ranks per
// category and communicator label.
//
//	cd internal/uoi && go test -run TestConsensusGoldenIdentical -consensus-print-golden
//
// prints the table as Go source.
//
// The table was captured from the drivers' own loops, before they ran
// through the engine, and every row still holds that capture except:
//   - every single-group lasso row has two fewer collective calls per rank:
//     the loops reduced the counts and the winners over the world even with
//     one group;
//   - lasso/r3-1x1 and var/r6-2x1 (groups of three ranks) moved Beta: the
//     loops rebuilt a winner as a sum of three identical copies times 1/3,
//     which is inexact;
//   - lasso/r4-1x2 and var/r4-1x2 (two λ groups) moved work and Beta: a
//     group's λ block is contiguous now, not strided, and its warm-start
//     chain starts cold at the block's first λ;
//   - every row moved Beta, and only Beta, when the x-updates became
//     products with an explicit (XᵀX + ρI)⁻¹ instead of triangular solves
//     (DESIGN.md §6): a consensus estimate is an ADMM iterate, so it moved
//     by a few ulps (at most 1.3e-15, no support changed) — lasso/r1-1x1,
//     lasso/r2-1x1, lasso/r3-1x1, lasso/r4-2x1, lasso/r4-1x2,
//     lasso-std/r2-1x1, lasso-quorum/r4-2x1, lasso-phases/r2-1x1,
//     var/r2-1x1-readers1, var/r4-1x1-readers2, var/r4-2x1-readers1,
//     var/r6-2x1-readers1, var/r4-1x2-readers1 and var-ca/r2-1x1-readers1;
//   - every row of more than one group has one collective call fewer per
//     communicator Split per rank, and no other field moved: a Split no
//     longer meters itself on top of its Allgather and two Barriers.

var consensusPrint = flag.Bool("consensus-print-golden", false, "print the consensus golden table as Go source instead of checking it")

// consensusCase is one row: a fit run on every rank of a world of `ranks`.
type consensusCase struct {
	name  string
	ranks int
	fit   func(c *mpi.Comm) (placedFit, error)
}

// rowShards block-stripes a shuffled copy of (x, y) over ranks, as a
// randomized distribution would.
func rowShards(seed uint64, x *mat.Dense, y []float64, ranks int) ([]*mat.Dense, [][]float64) {
	rows := make([][]float64, x.Rows)
	for i := range rows {
		rows[i] = x.Row(i)
	}
	flat, ys := shuffledBlocks(seed, rows, y, x.Cols, ranks)
	xs := make([]*mat.Dense, ranks)
	for r := range xs {
		xs[r] = denseFromRows(flat[r], x.Cols)
	}
	return xs, ys
}

func consensusCases() []consensusCase {
	var cases []consensusCase
	lasso := map[string]lassoTableCase{}
	for _, lc := range lassoTableCases() {
		lasso[lc.name] = lc
	}
	lassoRow := func(problem string, ranks int, grid GridShape) {
		lc := lasso[problem]
		xs, ys := rowShards(7, lc.x, lc.y, ranks)
		cases = append(cases, consensusCase{
			name: fmt.Sprintf("%s/r%d-%dx%d", problem, ranks, grid.PB, grid.PL), ranks: ranks,
			fit: func(c *mpi.Comm) (placedFit, error) {
				return lassoFit(Lasso(xs[c.Rank()], ys[c.Rank()], lassoOn(&lc.cfg, Placement{Comm: c, Shape: grid, Partitioned: true, Assembly: ConsensusADMM})))
			}})
	}
	lassoRow("lasso", 1, GridShape{1, 1})
	lassoRow("lasso", 2, GridShape{1, 1})
	lassoRow("lasso", 4, GridShape{2, 1})
	lassoRow("lasso-std", 2, GridShape{1, 1})
	lassoRow("lasso-quorum", 4, GridShape{2, 1})
	lassoRow("lasso", 3, GridShape{1, 1}) // group size 3
	lassoRow("lasso", 4, GridShape{1, 2}) // two λ groups
	{
		lc := lasso["lasso"]
		xs, ys := rowShards(7, lc.x, lc.y, 2)
		xe, ye := rowShards(8, lc.x, lc.y, 2)
		cases = append(cases, consensusCase{name: "lasso-phases/r2-1x1", ranks: 2,
			fit: func(c *mpi.Comm) (placedFit, error) {
				r := c.Rank()
				return lassoFit(Lasso(xs[r], ys[r], lassoOn(&lc.cfg, Placement{Comm: c, Partitioned: true, EstX: xe[r], EstY: ye[r], Assembly: ConsensusADMM})))
			}})
	}

	_, series := makeVARData(57, 4, 1, 300)
	v := VARConfig{Order: 1, B1: 4, B2: 3, Q: 4, LambdaRatio: 1e-2, Seed: 5}
	varRow := func(problem string, ranks, readers int, at Placement) {
		at.NReaders, at.Partitioned = readers, true
		groupSize := ranks / at.Shape.normalize().Ranks()
		cases = append(cases, consensusCase{
			name:  fmt.Sprintf("%s/r%d-%dx%d-readers%d", problem, ranks, at.Shape.normalize().PB, at.Shape.normalize().PL, readers),
			ranks: ranks,
			fit: func(c *mpi.Comm) (placedFit, error) {
				var s *mat.Dense
				if c.Rank()%groupSize < readers {
					s = series
				}
				mine := at
				mine.Comm = c
				return varFit(VAR(s, varOn(&v, mine)))
			}})
	}
	varRow("var", 2, 1, Placement{Assembly: KroneckerGets})
	varRow("var", 4, 2, Placement{Assembly: KroneckerGets})
	varRow("var-ca", 2, 1, Placement{Assembly: KroneckerCommAvoiding})
	varRow("var", 4, 1, Placement{Shape: GridShape{2, 1}, Assembly: KroneckerGets})
	varRow("var", 6, 1, Placement{Shape: GridShape{2, 1}, Assembly: KroneckerGets}) // group size 3
	varRow("var", 4, 1, Placement{Shape: GridShape{1, 2}, Assembly: KroneckerGets}) // two λ groups
	return cases
}

// TestConsensusGoldenIdentical checks every row against the golden table.
func TestConsensusGoldenIdentical(t *testing.T) {
	var printed []string
	for _, cc := range consensusCases() {
		cc := cc
		pb := tableProblem{name: cc.name, fit: func(e execution) (placedFit, error) { return cc.fit(e.at.Comm) }}
		run, err := runRanks(cc.ranks, mpi.RunOptions{}, pb, execution{})
		if err != nil {
			t.Errorf("%s: %v", cc.name, err)
			continue
		}
		for r, fit := range run.fits[1:] {
			assertBitsEqual(t, fmt.Sprintf("%s rank %d beta", cc.name, r+1), fit.beta, run.fits[0].beta)
		}
		got := fmt.Sprintf("beta=%#x %s", betaHash(run.fits[0].beta), run.golden())
		switch want, ok := consensusGolden[cc.name]; {
		case *consensusPrint:
			printed = append(printed, fmt.Sprintf("%q: %q,", cc.name, got))
		case !ok:
			t.Errorf("%s: no golden row (got %q)", cc.name, got)
		case got != want:
			t.Errorf("%s:\n got %s\nwant %s", cc.name, got, want)
		}
	}
	if *consensusPrint {
		sort.Strings(printed)
		fmt.Println(strings.Join(printed, "\n"))
	}
}

var consensusGolden = map[string]string{
	"lasso-phases/r2-1x1":    "beta=0x312b90011939f03d work=25/9/550 ckpt=0/0/0 mpi=collective:1138/202704",
	"lasso-quorum/r4-2x1":    "beta=0xffe1626510dd9511 work=15/4/325,15/4/325,5/4/159,5/4/159 ckpt=0/0/0 mpi=collective:1060/184928",
	"lasso-std/r2-1x1":       "beta=0x3c87a10435192979 work=25/9/545 ckpt=0/0/0 mpi=collective:1132/201536",
	"lasso/r1-1x1":           "beta=0x8b39746cbce9ef0 work=25/9/613 ckpt=0/0/0 mpi=collective:632/112944",
	"lasso/r2-1x1":           "beta=0x56817e7d11f017ef work=25/9/545 ckpt=0/0/0 mpi=collective:1128/200864",
	"lasso/r3-1x1":           "beta=0x604b4bb03067ea8c work=25/9/536 ckpt=0/0/0 mpi=collective:1665/296328",
	"lasso/r4-1x2":           "beta=0x649577f85d53d4b0 work=15/6/376,15/6/376,10/3/250,10/3/250 ckpt=0/0/0 mpi=collective:1324/236416",
	"lasso/r4-2x1":           "beta=0xb2cacfbb3661420e work=15/8/402,15/8/402,10/4/242,10/4/242 ckpt=0/0/0 mpi=collective:1356/243008",
	"var-ca/r2-1x1-readers1": "beta=0xd63b81189ac7fecc work=16/12/946 ckpt=0/0/0 mpi=collective:2016/349760,one-sided:4246/301392",
	"var/r2-1x1-readers1":    "beta=0xd63b81189ac7fecc work=16/12/946 ckpt=0/0/0 mpi=collective:2016/349760,one-sided:8432/602784",
	"var/r4-1x1-readers2":    "beta=0xa26222ffc848d447 work=16/12/1598 ckpt=0/0/0 mpi=collective:6640/1179392,one-sided:8492/602784",
	"var/r4-1x2-readers1":    "beta=0xd63b81189ac7fecc work=8/8/514,8/8/514,8/4/456,8/4/456 ckpt=0/0/0 mpi=collective:2130/364400,one-sided:13240/947232",
	"var/r4-2x1-readers1":    "beta=0xd63b81189ac7fecc work=8/8/527,8/8/527,8/4/419,8/4/419 ckpt=0/0/0 mpi=collective:2052/355232,one-sided:9634/688896",
	"var/r6-2x1-readers1":    "beta=0x769f54ef1faf0555 work=8/8/687,8/8/687,8/8/687,8/4/550,8/4/550,8/4/550 ckpt=0/0/0 mpi=collective:3951/693864,one-sided:9667/688896",
}
