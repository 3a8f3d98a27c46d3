package uoi

import (
	"errors"
	"flag"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"uoivar/internal/checkpoint"
	"uoivar/internal/fault"
	"uoivar/internal/mat"
	"uoivar/internal/mpi"
	"uoivar/internal/trace"
)

// The differential table: every replicated-data problem × every placement
// × kernel budgets, each fit compared bit for bit with one oracle (the
// worker pool at one worker and kernel budget 1), plus a golden table of
// work, checkpoint and communication counters captured at the commit
// before the engine collapse (placements_golden_test.go). The golden rows
// are what hold the drivers the repository benchmark does not run: a
// refactor that changes an mpi call sequence, a payload length, a save
// cadence or the work a placement does shows up as a changed row.
//
//	cd internal/uoi && go test -run TestPlacements -placements-print-golden
//
// prints the table as Go source, from fits at kernel budget 1 (the committed
// table was captured at GOMAXPROCS=1: before the kernels were made
// split-independent a fit's bits depended on both).

var placementsPrint = flag.Bool("placements-print-golden", false, "print the golden tables as Go source instead of checking them")

// placedFit is what the table compares across placements: the fields the
// UoI_LASSO and UoI_VAR results share.
type placedFit struct {
	beta, lambdas []float64
	supports      [][]int
	intercept     float64
	boot          BootstrapStats
	work          [3]int // Diag.LassoFits, Diag.OLSFits, Diag.ADMMIters
}

func lassoFit(r *Result, err error) (placedFit, error) {
	if err != nil {
		return placedFit{}, err
	}
	return placedFit{r.Beta, r.Lambdas, r.Supports, r.Intercept, r.Bootstrap,
		[3]int{r.Diag.LassoFits, r.Diag.OLSFits, r.Diag.ADMMIters}}, nil
}

func varFit(r *VARResult, err error) (placedFit, error) {
	if err != nil {
		return placedFit{}, err
	}
	return placedFit{beta: r.Beta, lambdas: r.Lambdas, supports: r.Supports,
		work: [3]int{r.Diag.LassoFits, r.Diag.OLSFits, r.Diag.ADMMIters}}, nil
}

// execution is the placement half of one table cell, as the entry points
// take it in the config: bootstrap workers, kernel budget, tracer,
// checkpoint and the placement value.
type execution struct {
	workers, kw int
	tr          *trace.Tracer
	ck          *CheckpointConfig
	at          *Placement // nil: in-process
	// noData: this rank is not one of a partitioned UoI_VAR fit's readers
	// and passes a nil series.
	noData bool
}

// tableProblem is the problem half: fit runs it under an execution.
type tableProblem struct {
	name   string
	fit    func(e execution) (placedFit, error)
	gridOK func(GridShape) bool // false: the grid entry point must reject the problem
	// partitioned: the partitioned UoI_VAR placements apply (they hold no
	// row blocks of a regression); partOK: they must accept the problem.
	partitioned, partOK bool
}

func lassoTableProblem(name string, x *mat.Dense, y []float64, base LassoConfig) tableProblem {
	return tableProblem{name: name, gridOK: func(GridShape) bool { return true },
		fit: func(e execution) (placedFit, error) {
			cfg := base
			cfg.Workers, cfg.KernelWorkers, cfg.Trace, cfg.Checkpoint, cfg.Placement = e.workers, e.kw, e.tr, e.ck, e.at
			return lassoFit(Lasso(x, y, &cfg))
		}}
}

func varTableProblem(name string, series *mat.Dense, base VARConfig) tableProblem {
	return tableProblem{name: name,
		// A WarmBeta seed reverses the λ sweep, which a grid with more than
		// one λ column cannot pipeline; partitioned VAR refuses it outright.
		gridOK:      func(s GridShape) bool { return base.WarmBeta == nil || s.PL == 1 },
		partitioned: true, partOK: base.WarmBeta == nil,
		fit: func(e execution) (placedFit, error) {
			cfg := base
			cfg.Workers, cfg.KernelWorkers, cfg.Trace, cfg.Checkpoint, cfg.Placement = e.workers, e.kw, e.tr, e.ck, e.at
			s := series
			if e.noData {
				s = nil
			}
			return varFit(VAR(s, &cfg))
		}}
}

// lassoTableCase is one UoI_LASSO problem of the table with its data bound.
type lassoTableCase struct {
	name string
	x    *mat.Dense
	y    []float64
	cfg  LassoConfig
}

// lassoTableCases builds the UoI_LASSO half of the problem axis.
func lassoTableCases() []lassoTableCase {
	x, y, _ := makeRegression(97, 900, 20, 6, 0.3)
	// Heterogeneous feature scales and an offset make standardisation matter.
	xs := x.Clone()
	ys := append([]float64(nil), y...)
	for i := 0; i < xs.Rows; i++ {
		row := xs.Row(i)
		for j := range row {
			row[j] = row[j]*[]float64{0.05, 1, 20}[j%3] + float64(j%4)
		}
		ys[i] += 3
	}
	drop := func(phase string, k int) error {
		if phase == "selection" && k == 1 || phase == "estimation" && k == 0 {
			return errors.New("injected drop")
		}
		return nil
	}
	lasso := LassoConfig{B1: 5, B2: 3, Q: 5, Seed: 11}
	with := func(f func(c *LassoConfig)) LassoConfig { c := lasso; f(&c); return c }
	return []lassoTableCase{
		{"lasso", x, y, lasso},
		{"lasso-std", xs, ys, with(func(c *LassoConfig) { c.Standardize = true })},
		{"lasso-l2", x, y, with(func(c *LassoConfig) { c.L2 = 50 })},
		{"lasso-soft-median", x, y, with(func(c *LassoConfig) { c.SelectionFrac, c.MedianUnion = 0.6, true })},
		{"lasso-quorum", x, y, with(func(c *LassoConfig) { c.MinBootstrapFrac, c.BootstrapFault = 0.5, drop })},
	}
}

// tableProblems builds the problem axis. The shapes cross the dense
// kernels' parallel gates (Gram: rows·cols² ≥ 16Ki, Aᵀy: rows·cols ≥ 16Ki)
// so that the kernel budget actually changes how the kernels split.
func tableProblems() []tableProblem {
	var problems []tableProblem
	for _, lc := range lassoTableCases() {
		problems = append(problems, lassoTableProblem(lc.name, lc.x, lc.y, lc.cfg))
	}
	_, s1 := makeVARData(23, 8, 1, 2100)
	_, s2 := makeVARData(29, 6, 2, 1500)
	v := VARConfig{Order: 1, B1: 4, B2: 3, Q: 4, LambdaRatio: 1e-2, Seed: 5}
	warm := make([]float64, (8+1)*8)
	for i := range warm {
		warm[i] = 0.05 * float64(i%7-3)
	}
	withV := func(f func(c *VARConfig)) VARConfig { c := v; f(&c); return c }
	return append(problems,
		varTableProblem("var1", s1, v),
		varTableProblem("var2", s2, withV(func(c *VARConfig) { c.Order = 2 })),
		varTableProblem("var-anchored", s1, withV(func(c *VARConfig) { c.Anchored, c.Anchor = true, 4096 })),
		varTableProblem("var-warm", s1, withV(func(c *VARConfig) { c.WarmBeta = warm })),
	)
}

// placedRun is one table cell's outcome: the fit every rank returned and
// the counters the golden table pins.
type placedRun struct {
	fits []placedFit // per rank (one entry for in-process placements)
	// rejected: the entry point refused the problem, as gridOK or partOK
	// said it must, or the placement does not apply to it.
	rejected bool
	ckpt     [3]int64 // ckpt/writes, ckpt/cells_skipped, ckpt/cells_loaded summed over ranks
	mpi      map[string][2]int64
}

// golden renders the run's counters as one table row.
func (r *placedRun) golden() string {
	work := make([]string, len(r.fits))
	for i, f := range r.fits {
		work[i] = fmt.Sprintf("%d/%d/%d", f.work[0], f.work[1], f.work[2])
	}
	if allSameWork(r.fits) {
		work = work[:1]
	}
	keys := make([]string, 0, len(r.mpi))
	for k := range r.mpi {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	comm := make([]string, len(keys))
	for i, k := range keys {
		comm[i] = fmt.Sprintf("%s:%d/%d", k, r.mpi[k][0], r.mpi[k][1])
	}
	return fmt.Sprintf("work=%s ckpt=%d/%d/%d mpi=%s", strings.Join(work, ","),
		r.ckpt[0], r.ckpt[1], r.ckpt[2], strings.Join(comm, ","))
}

func allSameWork(fits []placedFit) bool {
	for _, f := range fits[1:] {
		if f.work != fits[0].work {
			return false
		}
	}
	return true
}

// runRanks runs pb under e, at e.at (nil: replicated data, no shape) with
// each rank's communicator set, on every rank of a world and gathers what
// the table needs; opts carries an optional fault plan.
func runRanks(ranks int, opts mpi.RunOptions, pb tableProblem, e execution) (*placedRun, error) {
	run := &placedRun{fits: make([]placedFit, ranks), mpi: map[string][2]int64{}}
	var mu sync.Mutex
	err := mpi.RunWithOptions(ranks, opts, func(c *mpi.Comm) error {
		mine := e
		mine.at, mine.tr = placedAt(e.at, c), trace.New()
		if at := mine.at; at.Partitioned {
			mine.noData = c.Rank()%(ranks/at.Shape.normalize().Ranks()) >= at.NReaders
		}
		fit, err := pb.fit(mine)
		if err != nil {
			return err
		}
		st, labeled := c.LocalStats(), c.LocalLabelStats()
		mu.Lock()
		defer mu.Unlock()
		run.fits[c.Rank()] = fit
		run.addTrace(mine.tr)
		add := func(key string, s mpi.Stats) {
			for _, cat := range []mpi.Category{mpi.CatP2P, mpi.CatCollective, mpi.CatOneSided} {
				if s.Calls[cat] == 0 {
					continue
				}
				k := cat.String() + key
				v := run.mpi[k]
				run.mpi[k] = [2]int64{v[0] + s.Calls[cat], v[1] + s.Bytes[cat]}
			}
		}
		add("", st)
		for label, s := range labeled {
			add("["+label+"]", s)
		}
		return nil
	})
	return run, err
}

// lassoOn, varOn and allPairsOn copy cfg (nil: the defaults) at placement
// at: each rank passes its own config, whose Placement carries its
// communicator.
func lassoOn(cfg *LassoConfig, at Placement) *LassoConfig {
	var c LassoConfig
	if cfg != nil {
		c = *cfg
	}
	c.Placement = &at
	return &c
}

func varOn(cfg *VARConfig, at Placement) *VARConfig {
	var c VARConfig
	if cfg != nil {
		c = *cfg
	}
	c.Placement = &at
	return &c
}

func allPairsOn(cfg *AllPairsConfig, comm *mpi.Comm) *AllPairsConfig {
	var c AllPairsConfig
	if cfg != nil {
		c = *cfg
	}
	c.Placement = &Placement{Comm: comm}
	return &c
}

// placedAt copies at (nil: the zero placement) with comm set: each rank
// passes its own Placement.
func placedAt(at *Placement, comm *mpi.Comm) *Placement {
	var mine Placement
	if at != nil {
		mine = *at
	}
	mine.Comm = comm
	return &mine
}

func (r *placedRun) addTrace(tr *trace.Tracer) {
	r.ckpt[0] += tr.Counter("ckpt/writes")
	r.ckpt[1] += tr.Counter("ckpt/cells_skipped")
	r.ckpt[2] += tr.Counter("ckpt/cells_loaded")
}

// tablePlacement is the placement axis.
type tablePlacement struct {
	name string
	run  func(t *testing.T, pb tableProblem, kw int) (*placedRun, error)
	// sumsToOracle: the ranks split the oracle's work between them (journal
	// over a communicator) instead of each reporting all of it.
	sumsToOracle bool
	// partial: the fit resumed a checkpoint, so it did less work than the oracle.
	partial bool
}

func runLocal(pb tableProblem, e execution) (*placedRun, error) {
	e.tr = trace.New()
	fit, err := pb.fit(e)
	run := &placedRun{fits: []placedFit{fit}}
	run.addTrace(e.tr)
	return run, err
}

func tablePlacements() []tablePlacement {
	ckpt := func(t *testing.T) *CheckpointConfig {
		return &CheckpointConfig{Path: filepath.Join(t.TempDir(), "fit.uoickpt")}
	}
	pls := []tablePlacement{
		{name: "pool-w1", run: func(t *testing.T, pb tableProblem, kw int) (*placedRun, error) {
			return runLocal(pb, execution{workers: 1, kw: kw})
		}},
		{name: "pool-w3", run: func(t *testing.T, pb tableProblem, kw int) (*placedRun, error) {
			return runLocal(pb, execution{workers: 3, kw: kw})
		}},
		{name: "journal-serial", run: func(t *testing.T, pb tableProblem, kw int) (*placedRun, error) {
			return runLocal(pb, execution{workers: 1, kw: kw, ck: ckpt(t)})
		}},
		{name: "journal-r2", sumsToOracle: true, run: func(t *testing.T, pb tableProblem, kw int) (*placedRun, error) {
			return runRanks(2, mpi.RunOptions{}, pb, execution{kw: kw, ck: ckpt(t)})
		}},
		// Three ranks, rank 1 killed at its second exchange (the second
		// selection round), then resumed on two: the first round's three
		// cells are durable and skipped, everything else re-shards.
		{name: "journal-r3-killed-r2", partial: true, run: func(t *testing.T, pb tableProblem, kw int) (*placedRun, error) {
			ck := ckpt(t)
			plan := fault.NewPlan(3, fault.Event{Kind: fault.Crash, Rank: 1, Op: 1})
			err := runBounded(t, func() error {
				_, err := runRanks(3, mpi.RunOptions{Fault: plan}, pb, execution{kw: kw, ck: ck})
				return err
			})
			if err == nil || !typedOutcome(err) {
				t.Fatalf("killed run: err = %v, want a typed rank failure", err)
			}
			resume := *ck
			resume.Resume = true
			return runRanks(2, mpi.RunOptions{}, pb, execution{kw: kw, ck: &resume})
		}},
	}
	for _, shape := range gridShapes {
		at := &Placement{Shape: shape}
		name := "grid-" + shape.String()
		pls = append(pls, tablePlacement{name: name,
			run: func(t *testing.T, pb tableProblem, kw int) (*placedRun, error) {
				run, err := runRanks(shape.Ranks(), mpi.RunOptions{}, pb, execution{kw: kw, at: at})
				if err != nil && !pb.gridOK(shape) {
					return &placedRun{rejected: true}, nil
				}
				if err == nil && !pb.gridOK(shape) {
					t.Fatalf("%s accepted a problem it cannot place", name)
				}
				return run, err
			}})
	}
	// Partitioned UoI_VAR at its default assembly: the readers' series is
	// broadcast and the serial problem runs on the grid, so every rank
	// count, reader count and shape gives the oracle's bits. Six ranks in
	// two groups is a group of three.
	for _, part := range []struct {
		ranks, readers int
		shape          GridShape
	}{
		{2, 1, GridShape{1, 1}}, {3, 2, GridShape{1, 1}}, {4, 2, GridShape{2, 1}},
		{4, 1, GridShape{1, 2}}, {6, 2, GridShape{2, 1}}, {6, 1, GridShape{1, 2}},
	} {
		at := &Placement{Shape: part.shape, Partitioned: true, NReaders: part.readers}
		name := fmt.Sprintf("part-r%d-%s-n%d", part.ranks, part.shape, part.readers)
		pls = append(pls, tablePlacement{name: name,
			run: func(t *testing.T, pb tableProblem, kw int) (*placedRun, error) {
				if !pb.partitioned {
					return &placedRun{rejected: true}, nil
				}
				run, err := runRanks(part.ranks, mpi.RunOptions{}, pb, execution{kw: kw, at: at})
				switch {
				case !pb.partOK && errors.Is(err, ErrPlacement):
					return &placedRun{rejected: true}, nil
				case !pb.partOK:
					t.Fatalf("%s: got %v, want an ErrPlacement", name, err)
				}
				return run, err
			}})
	}
	return pls
}

// betaHash is FNV-1a over the coefficients' bit patterns.
func betaHash(beta []float64) uint64 {
	h := checkpoint.NewHasher()
	for _, v := range beta {
		h.AddFloat(v)
	}
	return h.Sum()
}

// TestPlacementsBitIdentical is the differential table.
func TestPlacementsBitIdentical(t *testing.T) {
	kws := []int{1, 2, 3}
	switch {
	case *placementsPrint:
		kws = kws[:1]
	case testing.Short():
		kws = []int{1, 3}
	}
	var printed []string
	for _, pb := range tableProblems() {
		pb := pb
		t.Run(pb.name, func(t *testing.T) {
			oracleRun, err := runLocal(pb, execution{workers: 1, kw: 1})
			if err != nil {
				t.Fatal(err)
			}
			oracle := oracleRun.fits[0]
			if *placementsPrint {
				printed = append(printed, fmt.Sprintf("hash\t%q: %#x,", pb.name, betaHash(oracle.beta)))
			} else if want := placementBetaHash[pb.name]; betaHash(oracle.beta) != want {
				t.Errorf("oracle Beta hash %#x, golden %#x", betaHash(oracle.beta), want)
			}
			for _, pl := range tablePlacements() {
				for _, kw := range kws {
					label := fmt.Sprintf("%s/%s kw=%d", pb.name, pl.name, kw)
					run, err := pl.run(t, pb, kw)
					if err != nil {
						t.Errorf("%s: %v", label, err)
						continue
					}
					if run.rejected {
						continue
					}
					var total [3]int
					for r, fit := range run.fits {
						where := fmt.Sprintf("%s rank %d", label, r)
						assertBitsEqual(t, where+" beta", fit.beta, oracle.beta)
						assertBitsEqual(t, where+" lambdas", fit.lambdas, oracle.lambdas)
						assertBitsEqual(t, where+" intercept", []float64{fit.intercept}, []float64{oracle.intercept})
						if !reflect.DeepEqual(fit.supports, oracle.supports) {
							t.Errorf("%s: supports differ from the oracle's", where)
						}
						if fit.boot != oracle.boot {
							t.Errorf("%s: bootstrap stats %+v, oracle %+v", where, fit.boot, oracle.boot)
						}
						if !pl.sumsToOracle && !pl.partial && fit.work != oracle.work {
							t.Errorf("%s: work %v, oracle %v", where, fit.work, oracle.work)
						}
						for i := range total {
							total[i] += fit.work[i]
						}
					}
					if pl.sumsToOracle && total != oracle.work {
						t.Errorf("%s: ranks' work sums to %v, oracle %v", label, total, oracle.work)
					}
					key := pb.name + "/" + pl.name
					switch want, ok := placementGolden[key]; {
					case *placementsPrint:
						if kw == kws[0] {
							printed = append(printed, fmt.Sprintf("row\t%q: %q,", key, run.golden()))
						}
					case !ok:
						t.Errorf("%s: no golden row (got %q)", label, run.golden())
					case run.golden() != want:
						t.Errorf("%s: counters\n got %s\nwant %s", label, run.golden(), want)
					}
				}
			}
		})
	}
	if *placementsPrint {
		sort.Strings(printed)
		fmt.Println(strings.Join(printed, "\n"))
	}
}
