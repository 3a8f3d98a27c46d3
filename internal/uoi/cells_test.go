package uoi

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"uoivar/internal/admm"
	"uoivar/internal/datagen"
	"uoivar/internal/mat"
	"uoivar/internal/mpi"
	"uoivar/internal/resample"
	"uoivar/internal/trace"
	"uoivar/internal/varsim"
)

// TestEstCellSkipsNaNLoss is the regression test for NaN-sticky winner
// selection: when the first candidate support covers a column of NaNs, its
// held-out loss is NaN, and the old `loss < bestLoss` chain let it win every
// later comparison. The clean candidate must win instead.
func TestEstCellSkipsNaNLoss(t *testing.T) {
	x, y, _ := makeRegression(3, 60, 6, 3, 0.2)
	root := resample.NewRNG(7)
	c := (&LassoConfig{Seed: 7}).defaults()
	// Poison feature 0 in the cell's *training* rows only: the OLS fit on
	// any support containing 0 turns NaN (and with it that candidate's
	// held-out loss), while candidates that exclude 0 stay finite. The split
	// here re-derives exactly what estimation cell 0 will draw.
	trainIdx, _ := resample.TrainEvalSplit(root.Derive(1_000_000), x.Rows, c.TrainFrac)
	for _, i := range trainIdx {
		x.Row(i)[0] = math.NaN()
	}
	// Candidate order matters: the poisoned support comes first.
	distinct := [][]int{{0}, {1, 2, 3}}
	beta, fits := lassoEst(t, x, y, 0, distinct, &c, 1)
	if fits != len(distinct) {
		t.Fatalf("fits = %d, want %d", fits, len(distinct))
	}
	for i, v := range beta {
		if math.IsNaN(v) {
			t.Fatalf("NaN winner survived: beta[%d] = %v", i, v)
		}
	}
	if beta[1] == 0 && beta[2] == 0 && beta[3] == 0 {
		t.Fatal("clean candidate {1,2,3} did not win")
	}
	t.Run("consensus-lasso", consensusLassoSkipsNaNLoss)
	t.Run("consensus-var", consensusVARSkipsNaNLoss)
}

// The consensus drivers solve every candidate from one factorization, so a
// NaN in the data poisons all candidates or none. What can single out the
// first (densest) candidate is an overflow in the held-out prediction: two
// huge-but-finite regressor values in one evaluation row, met by large
// coefficients of opposite sign, sum to +Inf − Inf = NaN, while a candidate
// whose support excludes the two columns multiplies them by exact zeros.
// The λ grids are explicit and ascending, so the dense support comes first.
const hugeRegressor = 1.7e308

func consensusLassoSkipsNaNLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, p = 200, 6
	x := mat.NewDense(n, p)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		y[i] = 3*row[0] - 3*row[1] + 10*row[2] + 0.1*rng.NormFloat64()
	}
	// λ = 1 keeps features 0, 1, 2 (|xᵀy| ≈ 600, 600, 2000); λ = 1000 keeps 2.
	cfg := &LassoConfig{B1: 3, B2: 1, Lambdas: []float64{1, 1000}, Seed: 7}
	c := cfg.defaults()
	// Estimation bootstrap 0's evaluation rows on rank 0, as LassoDistributed
	// derives them.
	_, evalIdx := resample.TrainEvalSplit(resample.NewRNG(cfg.Seed).Derive(1_000_000).Derive(1), n, c.TrainFrac)
	fit := func(xEst *mat.Dense, yEst []float64) *Result {
		var res *Result
		err := mpi.Run(1, func(comm *mpi.Comm) (err error) {
			res, err = Lasso(x, y, lassoOn(cfg, Placement{Comm: comm, Partitioned: true, EstX: xEst, EstY: yEst, Assembly: ConsensusADMM}))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Supports[0]) < 3 || len(res.Supports[1]) != 1 || res.Supports[1][0] != 2 {
			t.Fatalf("fixture supports %v, want a dense one then {2}", res.Supports)
		}
		return res
	}
	// First candidate non-finite: the finite one wins.
	xEst := x.Clone()
	xEst.Row(evalIdx[0])[0], xEst.Row(evalIdx[0])[1] = hugeRegressor, hugeRegressor
	res := fit(xEst, y)
	if res.Beta[0] != 0 || res.Beta[1] != 0 || res.Beta[2] == 0 {
		t.Fatalf("the candidate with the NaN loss won: beta = %v", res.Beta)
	}
	// Every candidate non-finite: the null model.
	yEst := append([]float64(nil), y...)
	yEst[evalIdx[0]] = math.NaN()
	for i, v := range fit(x, yEst).Beta {
		if v != 0 {
			t.Fatalf("all-NaN family must yield the null model, got beta[%d] = %v", i, v)
		}
	}
}

func consensusVARSkipsNaNLoss(t *testing.T) {
	// Channels 1 and 2 are white noise driving channel 0 with coefficients
	// ±1.5; channel 3 is a loud AR(1) driving channel 4, so that a large λ
	// keeps (4←3) and (3←3) and drops everything in equation 0.
	rng := rand.New(rand.NewSource(9))
	const n, p = 301, 5
	series := mat.NewDense(n, p)
	for t := 1; t < n; t++ {
		prev, row := series.Row(t-1), series.Row(t)
		row[0] = 1.5*prev[1] - 1.5*prev[2] + rng.NormFloat64()
		row[1] = rng.NormFloat64()
		row[2] = rng.NormFloat64()
		row[3] = 0.3*prev[3] + 10*rng.NormFloat64()
		row[4] = prev[3] + rng.NormFloat64()
	}
	// Series row 0 is read only as the lag of design row 0 (target row 1).
	// Find a seed whose selection bootstraps never draw that design row and
	// whose estimation bootstrap 0 evaluates on it.
	cfg := &VARConfig{Order: 1, B1: 2, B2: 1, Lambdas: []float64{30, 3000}}
	const m, blockLen = n - 1, 18 // ⌈√300⌉
	for cfg.Seed = 1; ; cfg.Seed++ {
		if cfg.Seed > 500 {
			t.Fatal("no seed places design row 0 in the evaluation split only")
		}
		c := cfg.defaults()
		root := resample.NewRNG(cfg.Seed)
		drawn := false
		for k := 0; k < cfg.B1; k++ {
			for _, target := range varSelTargets(root, k, m, blockLen, &c) {
				drawn = drawn || target == 1
			}
		}
		_, evalIdx := resample.BlockTrainEvalSplit(root.Derive(1_000_000), m, blockLen, c.TrainFrac)
		evaluated := false
		for _, i := range evalIdx {
			evaluated = evaluated || i == 0
		}
		if !drawn && evaluated {
			break
		}
	}
	fit := func(series *mat.Dense) *VARResult {
		var res *VARResult
		err := mpi.Run(1, func(comm *mpi.Comm) (err error) {
			res, err = VAR(series, varOn(cfg, Placement{Comm: comm, Partitioned: true, Assembly: KroneckerGets}))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Supports[0]) <= len(res.Supports[1]) || len(res.Supports[1]) == 0 {
			t.Fatalf("fixture supports %v, want a dense one then a sparse one", res.Supports)
		}
		return res
	}
	// First candidate non-finite: the finite one wins.
	poisoned := series.Clone()
	poisoned.Row(0)[1], poisoned.Row(0)[2] = hugeRegressor, hugeRegressor
	res := fit(poisoned)
	if res.A[0].At(0, 1) != 0 || res.A[0].At(0, 2) != 0 || res.A[0].At(4, 3) == 0 {
		t.Fatalf("the candidate with the NaN loss won: A = %v", res.A[0].Data)
	}
	// Every candidate non-finite (a NaN regressor times an exact zero is
	// still NaN): the null model.
	poisoned.Row(0)[1] = math.NaN()
	for i, v := range fit(poisoned).Beta {
		if v != 0 {
			t.Fatalf("all-NaN family must yield the null model, got beta[%d] = %v", i, v)
		}
	}
}

// TestEstCellAllNaNFallsBackToNull: when every candidate's held-out loss is
// non-finite, the cell must return the finite null model, not a NaN vector.
func TestEstCellAllNaNFallsBackToNull(t *testing.T) {
	x, y, _ := makeRegression(4, 50, 4, 2, 0.2)
	for i := 0; i < x.Rows; i++ {
		x.Row(i)[0] = math.NaN()
	}
	c := (&LassoConfig{Seed: 9}).defaults()
	beta, _ := lassoEst(t, x, y, 0, [][]int{{0}, {0, 1}}, &c, 1)
	for i, v := range beta {
		if v != 0 {
			t.Fatalf("all-NaN family must yield the null model, got beta[%d] = %v", i, v)
		}
	}
}

// TestVarEstCellSkipsNaNLoss exercises the same fix on the VAR estimation
// cell: a poisoned channel makes supports touching it score NaN, and the
// winner must come from the finite candidates.
func TestVarEstCellSkipsNaNLoss(t *testing.T) {
	rng := resample.NewRNG(21)
	m := varsim.GenerateStable(rng, 3, 1, nil)
	series := m.Simulate(rng.Derive(1), 80, 50)
	c := (&VARConfig{Order: 1}).defaults()
	full := varsim.NewDesign(series, c.Order, true)

	// A support using only the intercept column always fits finitely; a
	// NaN-poisoned series makes every support NaN instead, checked below.
	clean := []int{full.X.Cols - 1}
	beta, fits := varEst(t, series, 0, [][]int{clean}, &c, 1)
	if fits != 1 {
		t.Fatalf("fits = %d, want 1", fits)
	}
	for i, v := range beta {
		if math.IsNaN(v) {
			t.Fatalf("clean fit produced NaN at %d", i)
		}
	}

	series.Row(10)[0] = math.NaN()
	beta, _ = varEst(t, series, 0, [][]int{{0}, {1}}, &c, 1)
	for i, v := range beta {
		if math.IsNaN(v) {
			t.Fatalf("NaN winner survived VAR est cell: beta[%d] = %v", i, v)
		}
	}
}

// TestSupportKeyNoHighIndexCollision is the regression test for the 3-byte
// support-key packing: {2²⁴} and {0} collided (both hashed to three zero
// bytes), silently merging distinct whole-brain-scale vec supports.
func TestSupportKeyNoHighIndexCollision(t *testing.T) {
	if string(appendSupportKey(nil, []int{0})) == string(appendSupportKey(nil, []int{1 << 24})) {
		t.Fatal("the support key collides on indices ≥ 2²⁴")
	}
	got := dedupeSupports([][]int{{0}, {1 << 24}, {5}, {5 + 1<<24}})
	if len(got) != 4 {
		t.Fatalf("dedupeSupports merged distinct high-index supports: kept %d of 4: %v", len(got), got)
	}
}

// varCellFixture is a VAR problem reduced to what the cell bodies take.
type varCellFixture struct {
	series      *mat.Dense
	c           VARConfig
	m, blockLen int
	rowsB       int
	betaLen     int
	lambdas     []float64
}

func newVarCellFixture(series *mat.Dense, cfg *VARConfig) varCellFixture {
	c := cfg.defaults()
	m := series.Rows - c.Order
	full := varsim.NewDesign(series, c.Order, !c.NoIntercept)
	return varCellFixture{
		series: series, c: c, m: m, blockLen: int(math.Ceil(math.Sqrt(float64(m)))),
		rowsB: full.X.Cols, betaLen: full.X.Cols * full.P,
		lambdas: admm.LogSpaceLambdas(mat.NormInf(mat.MulAtB(full.X, full.Y).Data), c.LambdaRatio, c.Q),
	}
}

// vecResidual computes vec(Y) − (I⊗X)·beta equation by equation, stacked
// column-major.
func vecResidual(d *varsim.Design, beta []float64) []float64 {
	m, rowsB := d.Y.Rows, d.X.Cols
	out := make([]float64, m*d.P)
	for j := 0; j < d.P; j++ {
		pred := mat.MulVec(d.X, beta[j*rowsB:(j+1)*rowsB])
		for i := 0; i < m; i++ {
			out[j*m+i] = d.Y.At(i, j) - pred[i]
		}
	}
	return out
}

// perSupportVarEstCell is the estimation cell as it was before the
// sufficient-statistics rewrite, kept as the test oracle: every (support,
// equation) pair gathers its design columns and rebuilds their Gram, and the
// held-out loss goes through the materialised residual vector.
func perSupportVarEstCell(fx varCellFixture, root *resample.RNG, k int, distinct [][]int) (beta []float64, winner int) {
	d := fx.c.Order
	trainIdx, evalIdx := resample.BlockTrainEvalSplit(root.Derive(1_000_000+uint64(k)), fx.m, fx.blockLen, fx.c.TrainFrac)
	design := func(idx []int) *varsim.Design {
		targets := make([]int, len(idx))
		for i, v := range idx {
			targets[i] = d + v
		}
		return varsim.NewDesignFromRows(fx.series, d, !fx.c.NoIntercept, targets)
	}
	trainDes, evalDes := design(trainIdx), design(evalIdx)
	bestLoss, winner := math.Inf(1), -1
	yCol := make([]float64, trainDes.X.Rows)
	for si, s := range distinct {
		b := make([]float64, fx.betaLen)
		perEq := make([][]int, fx.series.Cols)
		for _, g := range s {
			perEq[g/fx.rowsB] = append(perEq[g/fx.rowsB], g%fx.rowsB)
		}
		for eq, cols := range perEq {
			if len(cols) > 0 {
				trainDes.Y.Col(eq, yCol)
				copy(b[eq*fx.rowsB:(eq+1)*fx.rowsB], admm.OLSOnSupportWorkers(trainDes.X, yCol, cols, 1))
			}
		}
		r := vecResidual(evalDes, b)
		loss := 0.5 * mat.Dot(r, r)
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			continue
		}
		if beta == nil || loss < bestLoss {
			bestLoss, beta, winner = loss, b, si
		}
	}
	if beta == nil {
		beta = make([]float64, fx.betaLen)
	}
	return beta, winner
}

// TestVarEstCellMatchesPerSupportPath: solving every (support, equation) OLS
// from sub-blocks of one XᵀX / XᵀY per cell must return what the per-support
// Gram rebuilds returned, bit for bit: a sub-block of the full Gram and the
// Gram of the gathered columns are the same sums in the same (input-row)
// order at any kernel budget.
func TestVarEstCellMatchesPerSupportPath(t *testing.T) {
	fixtures := []struct {
		seed    uint64
		p, d, n int
		cfg     VARConfig
	}{
		{21, 8, 1, 600, VARConfig{Order: 1, B1: 6, B2: 3, Q: 10, LambdaRatio: 1e-2, Seed: 5}},
		{22, 5, 2, 800, VARConfig{Order: 2, B1: 5, B2: 3, Q: 8, Seed: 6}},
		{31, 5, 1, 300, VARConfig{Order: 1, B1: 5, B2: 3, Q: 6, Seed: 9, NoIntercept: true}},
	}
	for _, f := range fixtures {
		_, series := makeVARData(f.seed, f.p, f.d, f.n)
		res, err := VAR(series, &f.cfg)
		if err != nil {
			t.Fatal(err)
		}
		distinct := dedupeSupports(res.Supports)
		if len(distinct) < 3 {
			t.Fatalf("fixture seed %d: only %d distinct supports", f.seed, len(distinct))
		}
		fx := newVarCellFixture(series, &f.cfg)
		root := resample.NewRNG(fx.c.Seed)
		// Kernel budgets 2 and 3 split the full Gram and the candidate fits
		// across workers; the gathered-column Grams stay below the parallel
		// gate.
		for _, kw := range []int{1, 2, 3} {
			for k := 0; k < fx.c.B2; k++ {
				want, winner := perSupportVarEstCell(fx, root, k, distinct)
				got, fits := varEst(t, series, k, distinct, &fx.c, kw)
				if fits != len(distinct) {
					t.Fatalf("seed %d cell %d: fits = %d, want %d", f.seed, k, fits, len(distinct))
				}
				for i := range want {
					if (want[i] == 0) != (got[i] == 0) {
						t.Fatalf("seed %d cell %d kw %d: winner differs from support %d at coefficient %d (%v vs %v)", f.seed, k, kw, winner, i, got[i], want[i])
					}
				}
				assertBitsEqual(t, fmt.Sprintf("seed %d cell %d kw %d beta", f.seed, k, kw), got, want)
			}
		}
	}
}

// TestFitCandidatesWorkersIdentical: an estimation cell spreads its
// candidate fits over its kernel budget, and offer must still see what one
// worker hands it — the same (j, loss, β), in the same order, bit for bit —
// at any budget, with more workers than candidates and with none, on VAR
// and LASSO fixtures whose candidates include one whose OLS ridge ladder
// ends all-NaN and one whose finite fit scores a NaN loss.
func TestFitCandidatesWorkersIdentical(t *testing.T) {
	type fixture struct {
		name     string
		x, y     *mat.Dense
		distinct [][]int
	}
	_, series := makeVARData(21, 8, 1, 600)
	vres, err := VAR(series, &VARConfig{Order: 1, B1: 6, B2: 3, Q: 10, LambdaRatio: 1e-2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	des := varsim.NewDesign(series, 1, true)
	x, y, _ := makeRegression(67, 400, 30, 5, 0.5)
	lres, err := Lasso(x, y, &LassoConfig{B1: 6, B2: 3, Q: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	fixtures := []fixture{
		{"var", des.X, des.Y, dedupeSupports(vres.Supports)},
		{"lasso", x, mat.NewDenseData(len(y), 1, y), dedupeSupports(lres.Supports)},
	}
	type offered struct {
		j    int
		loss float64
		beta []float64
	}
	for _, f := range fixtures {
		q, eqs, n := f.x.Cols, f.y.Cols, f.x.Rows
		// c1 and c2 are the design columns the fit's candidates use least.
		uses := make([]int, q)
		for _, s := range f.distinct {
			for _, g := range s {
				uses[g%q]++
			}
		}
		byUse := make([]int, q)
		for c := range byUse {
			byUse[c] = c
		}
		slices.SortStableFunc(byUse, func(a, b int) int { return uses[a] - uses[b] })
		c1, c2 := byUse[0], byUse[1]
		train, eval := make([]int, 0, n), make([]int, 0, n)
		for i := 0; i < n; i++ {
			if i < n*7/10 {
				train = append(train, i)
			} else {
				eval = append(eval, i)
			}
		}
		// Candidate 0 regresses on c1, whose Gram diagonal is NaN: the
		// ladder fails on every rung. The last regresses equation eqs−1 on
		// c2, finite in every training row and NaN in one evaluation row.
		distinct := append(append([][]int{{c1}}, f.distinct...), []int{(eqs-1)*q + c2})
		xe := f.x.Clone()
		xe.Set(eval[0], c2, math.NaN())
		cols, at := supportColumns(distinct, q)
		gram, xty := mat.Stats(xe, f.y, mat.Sample{Rows: train, Cols: cols}, 1)
		gram.Set(at[c1], at[c1], math.NaN())
		record := func(workers int, distinct [][]int) []offered {
			var out []offered
			fitCandidates(xe, f.y, gram, xty, at, eval, distinct, workers, func(j int, loss float64, beta []float64) {
				out = append(out, offered{j, loss, beta})
			})
			return out
		}
		all := record(1, distinct)
		if len(all) != len(distinct) {
			t.Fatalf("%s: %d offers for %d candidates", f.name, len(all), len(distinct))
		}
		if b := all[0].beta[c1]; !math.IsNaN(b) {
			t.Fatalf("%s: candidate 0 fit %v, want the ladder's NaN", f.name, b)
		}
		last := all[len(all)-1]
		if b := last.beta[(eqs-1)*q+c2]; math.IsNaN(b) || !math.IsNaN(last.loss) {
			t.Fatalf("%s: last candidate fit %v with loss %v, want a finite fit and a NaN loss", f.name, b, last.loss)
		}
		finite := 0
		for _, o := range all {
			if !math.IsNaN(o.loss) {
				finite++
			}
		}
		if finite < 2 {
			t.Fatalf("%s: only %d candidates scored a finite loss", f.name, finite)
		}
		for _, sub := range [][][]int{distinct, distinct[:3], distinct[:1], nil} {
			want := record(1, sub)
			for _, w := range []int{2, 3, 7} {
				got := record(w, sub)
				if len(got) != len(want) {
					t.Fatalf("%s %d candidates, %d workers: %d offers, want %d", f.name, len(sub), w, len(got), len(want))
				}
				for i := range want {
					label := fmt.Sprintf("%s %d candidates, %d workers, offer %d", f.name, len(sub), w, i)
					if got[i].j != want[i].j || math.Float64bits(got[i].loss) != math.Float64bits(want[i].loss) {
						t.Fatalf("%s: (j, loss) = (%d, %v), want (%d, %v)", label, got[i].j, got[i].loss, want[i].j, want[i].loss)
					}
					assertBitsEqual(t, label+" beta", got[i].beta, want[i].beta)
				}
			}
		}
	}
}

// TestVarEstCellPoisonedChannel is the NaN-sticky-winner regression on the
// sufficient-statistics path. One NaN observation of channel 0 inside the
// cell's training rows turns row 0 and column 0 of XᵀX and equation 0's
// column of XᵀY into NaN: candidates that fit equation 0, or regress on
// channel 0, score NaN and must be skipped even when listed first, while a
// candidate whose Gram sub-block avoids the channel still wins. A channel
// that is NaN throughout poisons every held-out loss and yields the null
// model.
func TestVarEstCellPoisonedChannel(t *testing.T) {
	_, series := makeVARData(41, 4, 1, 200)
	fx := newVarCellFixture(series, &VARConfig{Order: 1, Seed: 3})
	root := resample.NewRNG(fx.c.Seed)
	trainIdx, _ := resample.BlockTrainEvalSplit(root.Derive(1_000_000), fx.m, fx.blockLen, fx.c.TrainFrac)
	// Series row τ is the target of design row τ−1 and the lag of design
	// row τ; pick τ so both are training rows and the eval design is clean.
	tau := -1
	for i := 0; i+1 < len(trainIdx); i++ {
		if trainIdx[i+1] == trainIdx[i]+1 {
			tau = trainIdx[i] + 1
			break
		}
	}
	if tau < 0 {
		t.Fatal("no two adjacent training rows")
	}
	series.Row(tau)[0] = math.NaN()
	eq0onCh1, eq1onCh0, eq1onCh1 := 0*fx.rowsB+1, 1*fx.rowsB+0, 1*fx.rowsB+1
	beta, fits := varEst(t, series, 0, [][]int{{eq0onCh1}, {eq1onCh0}, {eq1onCh1}}, &fx.c, 1)
	if fits != 3 {
		t.Fatalf("fits = %d, want 3", fits)
	}
	for i, v := range beta {
		if math.IsNaN(v) {
			t.Fatalf("NaN winner survived: beta[%d]", i)
		}
		if (v != 0) != (i == eq1onCh1) {
			t.Fatalf("clean candidate {%d} did not win: beta[%d] = %v", eq1onCh1, i, v)
		}
	}

	for i := 0; i < series.Rows; i++ {
		series.Row(i)[0] = math.NaN()
	}
	beta, _ = varEst(t, series, 0, [][]int{{eq1onCh1}, {eq0onCh1}}, &fx.c, 1)
	for i, v := range beta {
		if v != 0 {
			t.Fatalf("all-NaN family must yield the null model, got beta[%d] = %v", i, v)
		}
	}
}

// TestVarSelCellMatchesPerEquationSweep pins the λ-outer batched selection
// cell to the sweep it replaced — equation-outer, one SolveRHS per (equation,
// λ) on the warm chain — bit for bit: same supports, fits and iterations, on
// a cold sweep, a WarmBeta-seeded (reversed) sweep, an elastic-net cell and
// a grid-style λ block with warm/emit hooks.
func TestVarSelCellMatchesPerEquationSweep(t *testing.T) {
	_, series := makeVARData(21, 8, 1, 400)
	p := series.Cols
	seed := make([]float64, 9*p)
	for i := range seed {
		seed[i] = 0.05 * float64(i%7-3)
	}
	for name, cfg := range map[string]VARConfig{
		"cold":    {Order: 1, Q: 7, LambdaRatio: 1e-2, Seed: 5},
		"warm":    {Order: 1, Q: 7, LambdaRatio: 1e-2, Seed: 5, WarmBeta: seed},
		"elastic": {Order: 1, Q: 5, Seed: 8, L2: 0.5},
	} {
		fx := newVarCellFixture(series, &cfg)
		root := resample.NewRNG(fx.c.Seed)
		for _, kw := range []int{1, 3} {
			jLo, jHi := 0, len(fx.lambdas)
			var warm func(int) ([]float64, []float64)
			var emitted [][2][]float64
			var emit func(int, []float64, []float64)
			if name == "cold" && kw == 3 {
				// A grid column: the λ block [2, 5) entered from a handoff.
				jLo, jHi = 2, 5
				warm = func(eq int) ([]float64, []float64) {
					z, u := make([]float64, fx.rowsB), make([]float64, fx.rowsB)
					z[eq%fx.rowsB], u[(eq+1)%fx.rowsB] = 0.2, -0.1
					return z, u
				}
				emitted = make([][2][]float64, p)
				emit = func(eq int, z, u []float64) { emitted[eq] = [2][]float64{z, u} }
			}
			sup, fits, iters, err := varSel(t, series, 1, jLo, jHi, warm, emit, &fx.c, kw)
			if err != nil {
				t.Fatal(err)
			}

			// The oracle: same design and factorization, equation-outer.
			des := varsim.NewDesignFromRows(series, 1, true, varSelTargets(root, 1, fx.m, fx.blockLen, &fx.c))
			var f *admm.Factorization
			if fx.c.L2 > 0 {
				f, err = admm.NewFactorizationElasticWorkers(mat.AtAWorkers(des.X, kw), 0, fx.c.L2, kw)
			} else {
				f, err = admm.NewFactorizationGramWorkers(mat.AtAWorkers(des.X, kw), 0, kw)
			}
			if err != nil {
				t.Fatal(err)
			}
			wantSup := make([]bool, (jHi-jLo)*fx.betaLen)
			wantFits, wantIters := 0, 0
			yCol := make([]float64, des.X.Rows)
			for eq := 0; eq < p; eq++ {
				aty := mat.AtVecWorkers(des.X, des.Y.Col(eq, yCol), kw)
				var wz, wu []float64
				if fx.c.WarmBeta != nil {
					wz = fx.c.WarmBeta[eq*fx.rowsB : (eq+1)*fx.rowsB]
				}
				if warm != nil {
					wz, wu = warm(eq)
				}
				for step := 0; step < jHi-jLo; step++ {
					j := jLo + step
					if fx.c.WarmBeta != nil {
						j = jHi - 1 - step
					}
					r := f.SolveRHS(aty, fx.lambdas[j], &admm.Options{WarmZ: wz, WarmU: wu})
					wz, wu = r.Beta, r.U
					wantFits++
					wantIters += r.Iters
					for i, v := range r.Beta {
						wantSup[(j-jLo)*fx.betaLen+eq*fx.rowsB+i] = math.Abs(v) > fx.c.SupportTol
					}
				}
				if emit != nil {
					for i := range wz {
						if math.Float64bits(wz[i]) != math.Float64bits(emitted[eq][0][i]) || math.Float64bits(wu[i]) != math.Float64bits(emitted[eq][1][i]) {
							t.Fatalf("%s kw=%d: emitted chain state of equation %d differs at %d", name, kw, eq, i)
						}
					}
				}
			}
			if fits != wantFits || iters != wantIters {
				t.Fatalf("%s kw=%d: fits/iters %d/%d, per-equation sweep %d/%d", name, kw, fits, iters, wantFits, wantIters)
			}
			for i := range wantSup {
				if sup[i] != wantSup[i] {
					t.Fatalf("%s kw=%d: support indicator %d differs", name, kw, i)
				}
			}
		}
	}
}

// BenchmarkVARSelCell times one selection cell at the var_network
// benchmark's shape (p=60, n=600, order 1, Q=16) on one kernel worker, as
// the fit's bootstrap pool runs it: the bootstrap design, its Gram and
// inverse, XᵀY, and the λ-outer batched solve of all 60 equations.
func BenchmarkVARSelCell(b *testing.B) {
	series := datagen.MakeFinance(1000, 60, 600, nil).Series
	fx := newVarCellFixture(series, &VARConfig{Order: 1, B1: 6, B2: 3, Q: 16, Seed: 7})
	pb := varProblem(b, series, &fx.c, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pb.selCell(i%fx.c.B1, 0, len(fx.lambdas), nil, nil, trace.Span{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVAREstCell times one estimation cell at the var_network
// benchmark's shape (p=60, n=600, order 1) over the distinct supports of a
// Q=16 fit, at kernel budgets 1 and 2: the Gram and XᵀY of the training
// design once, then a Cholesky per (support, equation) sub-block and each
// candidate's held-out loss, spread over the budget's workers.
func BenchmarkVAREstCell(b *testing.B) {
	series := datagen.MakeFinance(1000, 60, 600, nil).Series
	cfg := VARConfig{Order: 1, B1: 6, B2: 3, Q: 16, Seed: 7}
	res, err := VAR(series, &cfg)
	if err != nil {
		b.Fatal(err)
	}
	distinct := dedupeSupports(res.Supports)
	fx := newVarCellFixture(series, &cfg)
	for _, kw := range []int{1, 2} {
		b.Run(fmt.Sprintf("kw%d", kw), func(b *testing.B) {
			pb := varProblem(b, series, &fx.c, kw)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pb.estCell(i%fx.c.B2, distinct, trace.Span{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// varProblem is the UoI_VAR problem of c (defaulted) over series at kernel
// budget kw.
func varProblem(t testing.TB, series *mat.Dense, c *VARConfig, kw int) *problem {
	t.Helper()
	cc := *c
	cc.KernelWorkers = kw
	pb, err := newVARProblem(series, &cc, 1)
	if err != nil {
		t.Fatal(err)
	}
	return pb
}

// varSel runs selection bootstrap k of c's UoI_VAR problem over series at
// kernel budget kw over the λ block [jLo, jHi), and returns its support
// indicators, LASSO fits and ADMM iterations.
func varSel(t testing.TB, series *mat.Dense, k, jLo, jHi int, warm warmFn, emit emitFn, c *VARConfig, kw int) ([]bool, int, int, error) {
	pb := varProblem(t, series, c, kw)
	sup, err := pb.selCell(k, jLo, jHi, warm, emit, trace.Span{})
	return sup, pb.diag.LassoFits, pb.diag.ADMMIters, err
}

// varEst runs estimation bootstrap k of c's UoI_VAR problem over series at
// kernel budget kw, and returns its winner and OLS fits.
func varEst(t testing.TB, series *mat.Dense, k int, distinct [][]int, c *VARConfig, kw int) ([]float64, int) {
	pb := varProblem(t, series, c, kw)
	beta, err := pb.estCell(k, distinct, trace.Span{})
	if err != nil {
		t.Fatal(err)
	}
	return beta, pb.diag.OLSFits
}

// lassoEst runs estimation bootstrap k of c's (defaulted) UoI_LASSO problem
// over (x, y) at kernel budget kw, and returns its winner and OLS fits.
func lassoEst(t testing.TB, x *mat.Dense, y []float64, k int, distinct [][]int, c *LassoConfig, kw int) ([]float64, int) {
	t.Helper()
	cc := *c
	cc.KernelWorkers = kw
	pb, _, err := newLassoProblem(x, y, &cc, 1)
	if err != nil {
		t.Fatal(err)
	}
	beta, err := pb.estCell(k, distinct, trace.Span{})
	if err != nil {
		t.Fatal(err)
	}
	return beta, pb.diag.OLSFits
}
