package kron

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"uoivar/internal/admm"
	"uoivar/internal/mat"
	"uoivar/internal/mpi"
	"uoivar/internal/resample"
	"uoivar/internal/varsim"
)

// buildSeries returns a small VAR series and its full design.
func buildSeries(seed uint64, p, d, n int) (*mat.Dense, *varsim.Design) {
	rng := resample.NewRNG(seed)
	model := varsim.GenerateStable(rng, p, d, nil)
	series := model.Simulate(rng.Derive(1), n, 20)
	return series, varsim.NewDesign(series, d, false)
}

// GlobalCols returns the total columns (Q·P), the length of vec(B).
func (b *VecBlock) GlobalCols() int { return b.Q * b.P }

// kronI is the dense oracle for the vectorized design I_p ⊗ X (eq. 9).
func kronI(x *mat.Dense, p int) *mat.Dense {
	out := mat.NewDense(p*x.Rows, p*x.Cols)
	for e := 0; e < p; e++ {
		for i := 0; i < x.Rows; i++ {
			copy(out.Row(e*x.Rows + i)[e*x.Cols:], x.Row(i))
		}
	}
	return out
}

// readerSlice builds reader r's contiguous design block from the series.
func readerSlice(series *mat.Dense, d int, m, nReaders, r int) *varsim.Design {
	lo, hi := mpi.RowBlock(m, nReaders, r)
	targets := make([]int, hi-lo)
	for i := range targets {
		targets[i] = d + lo + i
	}
	return varsim.NewDesignFromRows(series, d, false, targets)
}

// The Kronecker assembly reads sample i from reader mpi.RowOwner(m,
// nReaders, i), which must agree with the mpi.RowBlock striping the
// readers' windows follow.
func TestReaderBlockHelpers(t *testing.T) {
	for _, c := range []struct{ m, readers int }{{10, 3}, {7, 2}, {9, 9}, {4, 1}} {
		for i := 0; i < c.m; i++ {
			r := mpi.RowOwner(c.m, c.readers, i)
			lo, hi := mpi.RowBlock(c.m, c.readers, r)
			if i < lo || i >= hi {
				t.Fatalf("m=%d readers=%d: sample %d → reader %d [%d,%d)", c.m, c.readers, i, r, lo, hi)
			}
		}
	}
}

func TestAssembleMatchesExplicitKron(t *testing.T) {
	p, d, n := 3, 1, 13
	series, full := buildSeries(41, p, d, n)
	m := full.X.Rows
	q := full.X.Cols
	explicit := kronI(full.X, p)
	vy := full.VecY()

	for _, cfg := range []struct{ ranks, readers int }{{4, 2}, {6, 1}, {3, 3}, {8, 4}} {
		blocks := make([]*VecBlock, cfg.ranks)
		err := mpi.Run(cfg.ranks, func(c *mpi.Comm) error {
			var local *varsim.Design
			if c.Rank() < cfg.readers {
				local = readerSlice(series, d, m, cfg.readers, c.Rank())
			}
			b, err := Assemble(c, local, cfg.readers)
			if err != nil {
				return err
			}
			blocks[c.Rank()] = b
			return nil
		})
		if err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		// Stitch blocks back together and compare to the explicit operator.
		covered := 0
		for _, b := range blocks {
			if b.M != m || b.P != p || b.Q != q {
				t.Fatalf("cfg %+v: block shape %+v", cfg, b)
			}
			for r := 0; r < b.X.Rows; r++ {
				g := b.GLo + r
				j, i := g/m, g%m
				// The compact row must equal X row i.
				for cc := 0; cc < q; cc++ {
					if b.X.At(r, cc) != full.X.At(i, cc) {
						t.Fatalf("cfg %+v: row %d col %d mismatch", cfg, g, cc)
					}
					// And it must sit in column block j of the explicit operator.
					if explicit.At(g, j*q+cc) != b.X.At(r, cc) {
						t.Fatalf("cfg %+v: explicit mismatch at (%d,%d)", cfg, g, j*q+cc)
					}
				}
				if b.Y[r] != vy[g] {
					t.Fatalf("cfg %+v: vecY mismatch at %d", cfg, g)
				}
			}
			covered += b.X.Rows
		}
		if covered != m*p {
			t.Fatalf("cfg %+v: covered %d rows, want %d", cfg, covered, m*p)
		}
	}
}

func TestAssembleCommAvoidingIdenticalResult(t *testing.T) {
	p, d, n := 4, 2, 12
	series, full := buildSeries(42, p, d, n)
	m := full.X.Rows
	// Two ranks over p=4 equations: each rank's slice spans two equations,
	// so every sample row is needed twice and de-duplication halves the Gets.
	const ranks, readers = 2, 2
	var bytesNaive, bytesDedup int64
	run := func(dedup bool) []*VecBlock {
		blocks := make([]*VecBlock, ranks)
		err := mpi.Run(ranks, func(c *mpi.Comm) error {
			var local *varsim.Design
			if c.Rank() < readers {
				local = readerSlice(series, d, m, readers, c.Rank())
			}
			var b *VecBlock
			var err error
			if dedup {
				b, err = AssembleCommAvoiding(c, local, readers)
			} else {
				b, err = Assemble(c, local, readers)
			}
			if err != nil {
				return err
			}
			blocks[c.Rank()] = b
			c.Barrier()
			if c.Rank() == 0 {
				g := c.GlobalStats()
				if dedup {
					bytesDedup = g.Bytes[mpi.CatOneSided]
				} else {
					bytesNaive = g.Bytes[mpi.CatOneSided]
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return blocks
	}
	a := run(false)
	b := run(true)
	for r := range a {
		if a[r].GLo != b[r].GLo || a[r].GHi != b[r].GHi {
			t.Fatal("row ranges differ")
		}
		for i := range a[r].Y {
			if a[r].Y[i] != b[r].Y[i] {
				t.Fatal("Y differs between strategies")
			}
		}
		if !a[r].X.Equal(b[r].X, 0) {
			t.Fatal("X differs between strategies")
		}
	}
	if bytesDedup >= bytesNaive {
		t.Fatalf("comm-avoiding assembly must move fewer bytes: %d vs %d", bytesDedup, bytesNaive)
	}
}

func TestAssembleValidation(t *testing.T) {
	series, full := buildSeries(43, 2, 1, 8)
	m := full.X.Rows
	err := mpi.Run(2, func(c *mpi.Comm) error {
		var local *varsim.Design
		if c.Rank() < 1 {
			local = readerSlice(series, 1, m, 1, 0)
		}
		if _, err := Assemble(c, local, 0); err == nil {
			return fmt.Errorf("nReaders=0 must fail")
		}
		if _, err := Assemble(c, local, 3); err == nil {
			return fmt.Errorf("nReaders>size must fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The end-to-end check: distributed consensus LASSO on the assembled
// vectorized problem must match a serial LASSO on the explicit (I⊗X) dense
// design.
func TestVecConsensusMatchesSerial(t *testing.T) {
	p, d, n := 3, 1, 20
	series, full := buildSeries(44, p, d, n)
	m := full.X.Rows
	explicit := kronI(full.X, p)
	vy := full.VecY()

	for _, lambda := range []float64{0, 0.8, 3} {
		serial := admm.CoordinateDescentLasso(explicit, vy, lambda, 8000, 1e-11)
		const ranks, readers = 4, 2
		betas := make([][]float64, ranks)
		err := mpi.Run(ranks, func(c *mpi.Comm) error {
			var local *varsim.Design
			if c.Rank() < readers {
				local = readerSlice(series, d, m, readers, c.Rank())
			}
			b, err := Assemble(c, local, readers)
			if err != nil {
				return err
			}
			f, err := NewVecFactorizationWorkers(c, b, 1, 0)
			if err != nil {
				return err
			}
			res := f.Solve(lambda, &admm.Options{MaxIter: 6000, AbsTol: 1e-9, RelTol: 1e-7})
			betas[c.Rank()] = res.Beta
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial.Beta {
			if math.Abs(betas[0][i]-serial.Beta[i]) > 5e-3 {
				t.Fatalf("λ=%v: beta[%d] = %v, serial %v", lambda, i, betas[0][i], serial.Beta[i])
			}
		}
		// All ranks agree exactly.
		for r := 1; r < ranks; r++ {
			for i := range betas[0] {
				if betas[r][i] != betas[0][i] {
					t.Fatalf("rank %d disagrees", r)
				}
			}
		}
	}
}

func TestVecBlockHelpers(t *testing.T) {
	b := &VecBlock{GLo: 7, GHi: 12, M: 5, P: 4, Q: 3}
	if b.Equation(0) != 1 {
		t.Fatalf("Equation wrong: %d", b.Equation(0))
	}
	if b.GlobalRows() != 20 || b.GlobalCols() != 12 {
		t.Fatal("global dims wrong")
	}
}

func TestLocalSquaredError(t *testing.T) {
	p, d, n := 3, 1, 15
	series, full := buildSeries(45, p, d, n)
	m := full.X.Rows
	explicit := kronI(full.X, p)
	vy := full.VecY()
	beta := make([]float64, explicit.Cols)
	rng := resample.NewRNG(9)
	for i := range beta {
		beta[i] = rng.NormFloat64()
	}
	r := mat.Sub(mat.MulVec(explicit, beta), vy)
	want := 0.5 * mat.Dot(r, r)

	const ranks, readers = 3, 1
	total := 0.0
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		var local *varsim.Design
		if c.Rank() < readers {
			local = readerSlice(series, d, m, readers, c.Rank())
		}
		b, err := Assemble(c, local, readers)
		if err != nil {
			return err
		}
		sum := c.AllreduceScalar(mpi.OpSum, b.LocalSquaredError(beta))
		if c.Rank() == 0 {
			total = sum
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-want) > 1e-8*(1+want) {
		t.Fatalf("squared error %v, want %v", total, want)
	}
}

// SolveProjected must match serial OLS restricted to the same support on
// the explicit Kronecker design.
func TestVecSolveProjectedMatchesSerialOLS(t *testing.T) {
	p, d, n := 3, 1, 18
	series, full := buildSeries(46, p, d, n)
	m := full.X.Rows
	explicit := kronI(full.X, p)
	vy := full.VecY()
	qTot := explicit.Cols
	// A support spanning two equations.
	support := []int{0, 2, 4, 7}
	mask := make([]bool, qTot)
	for _, j := range support {
		mask[j] = true
	}
	want := admm.OLSOnSupportWorkers(explicit, vy, support, 0)

	const ranks, readers = 3, 1
	var got []float64
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		var local *varsim.Design
		if c.Rank() < readers {
			local = readerSlice(series, d, m, readers, c.Rank())
		}
		b, err := Assemble(c, local, readers)
		if err != nil {
			return err
		}
		f, err := NewVecFactorizationWorkers(c, b, GlobalRho(c, b), 0)
		if err != nil {
			return err
		}
		r := f.SolveProjected(mask, &admm.Options{MaxIter: 8000, AbsTol: 1e-10, RelTol: 1e-8})
		if c.Rank() == 0 {
			got = r.Beta
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-4 {
			t.Fatalf("projected OLS beta[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Off-support coordinates are exactly zero.
	for i, v := range got {
		if !mask[i] && v != 0 {
			t.Fatalf("off-support coordinate %d = %v", i, v)
		}
	}
}

// perEquationVec is the per-equation consensus solver the grouped one
// replaced, kept as the oracle of its bits: every equation with local rows
// gets its own copied rows, Gram and factorization, and one x-update of its
// own per iteration.
type perEquationVec struct {
	block      *VecBlock
	rho        float64
	eqLo, eqHi int
	fac        []*admm.Factorization
	aty        [][]float64
}

func newPerEquationVec(b *VecBlock, rho float64, workers int) (*perEquationVec, error) {
	f := &perEquationVec{block: b, rho: rho}
	if b.X.Rows == 0 {
		return f, nil
	}
	f.eqLo = b.Equation(0)
	f.eqHi = b.Equation(b.X.Rows-1) + 1
	r := 0
	for e := 0; e < f.eqHi-f.eqLo; e++ {
		lo := r
		for r < b.X.Rows && b.Equation(r) == f.eqLo+e {
			r++
		}
		sub := b.X.SubRows(lo, r)
		fac, err := admm.NewFactorizationGramWorkers(mat.AtAWorkers(sub, workers), rho, workers)
		if err != nil {
			return nil, err
		}
		f.fac = append(f.fac, fac)
		f.aty = append(f.aty, mat.AtVecWorkers(sub, b.Y[lo:r], workers))
	}
	return f, nil
}

func (f *perEquationVec) solve(comm *mpi.Comm, lambda float64, opts *admm.Options) *admm.Result {
	nRanks := float64(comm.Size())
	return f.run(comm, opts, func(z, sum []float64) {
		if lambda > 0 {
			k := lambda / (f.rho * nRanks)
			for i := range z {
				z[i] = admm.SoftThreshold(sum[i]/nRanks, k)
			}
			return
		}
		for i := range z {
			z[i] = sum[i] / nRanks
		}
	})
}

func (f *perEquationVec) solveProjected(comm *mpi.Comm, support []bool, opts *admm.Options) *admm.Result {
	nRanks := float64(comm.Size())
	return f.run(comm, opts, func(z, sum []float64) {
		for i := range z {
			if support[i] {
				z[i] = sum[i] / nRanks
			} else {
				z[i] = 0
			}
		}
	})
}

func (f *perEquationVec) run(comm *mpi.Comm, opts *admm.Options, zUpdate func(z, sum []float64)) *admm.Result {
	// The solver's defaults; the cases set only MaxIter and the warm pair.
	o := admm.Options{MaxIter: 500, AbsTol: 1e-6, RelTol: 1e-4}
	if opts != nil {
		o.WarmZ, o.WarmU = opts.WarmZ, opts.WarmU
		if opts.MaxIter > 0 {
			o.MaxIter = opts.MaxIter
		}
	}
	b := f.block
	qTot := b.GlobalCols()
	nRanks := float64(comm.Size())
	q := b.Q

	z := make([]float64, qTot)
	u := make([]float64, qTot)
	if o.WarmZ != nil {
		copy(z, o.WarmZ)
	}
	if o.WarmU != nil {
		copy(u, o.WarmU)
	}
	x := make([]float64, qTot)
	rhs := make([]float64, q)
	zOld := make([]float64, qTot)
	buf := make([]float64, qTot+3)
	sqrtN := math.Sqrt(float64(qTot) * nRanks)

	var primal, dual float64
	iters := 0
	converged := false
	for iter := 1; iter <= o.MaxIter; iter++ {
		iters = iter
		for j := 0; j < b.P; j++ {
			zj := z[j*q : (j+1)*q]
			uj := u[j*q : (j+1)*q]
			xj := x[j*q : (j+1)*q]
			if j >= f.eqLo && j < f.eqHi {
				e := j - f.eqLo
				for i := 0; i < q; i++ {
					rhs[i] = f.aty[e][i] + float64(f.rho*(zj[i]-uj[i]))
				}
				f.fac[e].XUpdate(xj, rhs)
			} else {
				for i := 0; i < q; i++ {
					xj[i] = zj[i] - uj[i]
				}
			}
		}
		var localPrimal, localXSq, localUSq float64
		for i := 0; i < qTot; i++ {
			buf[i] = x[i] + u[i]
			d := x[i] - z[i]
			localPrimal += float64(d * d)
			localXSq += float64(x[i] * x[i])
			localUSq += float64(u[i] * u[i])
		}
		buf[qTot] = localPrimal
		buf[qTot+1] = localXSq
		buf[qTot+2] = localUSq
		comm.Allreduce(mpi.OpSum, buf)

		copy(zOld, z)
		zUpdate(z, buf[:qTot])
		for i := range u {
			u[i] += x[i] - z[i]
		}

		primal = math.Sqrt(buf[qTot])
		dual = 0
		for i := range z {
			d := z[i] - zOld[i]
			dual += float64(d * d)
		}
		dual = f.rho * math.Sqrt(nRanks) * math.Sqrt(dual)
		normX := math.Sqrt(buf[qTot+1])
		normZ := math.Sqrt(nRanks) * mat.Norm2(z)
		normU := math.Sqrt(buf[qTot+2])
		epsPrimal := float64(sqrtN*o.AbsTol) + float64(o.RelTol*math.Max(normX, normZ))
		epsDual := float64(sqrtN*o.AbsTol) + float64(o.RelTol*f.rho*normU)
		if primal <= epsPrimal && dual <= epsDual {
			converged = true
			break
		}
	}
	return &admm.Result{
		Beta:       z,
		U:          u,
		Iters:      iters,
		Converged:  converged,
		PrimalRes:  primal,
		DualRes:    dual,
		AllreduceN: iters,
	}
}

// sameResult reports the first field in which two solve results differ by
// Float64bits, or "".
func sameResult(got, want *admm.Result) string {
	switch {
	case got.Iters != want.Iters:
		return fmt.Sprintf("Iters %d, want %d", got.Iters, want.Iters)
	case got.Converged != want.Converged:
		return fmt.Sprintf("Converged %v, want %v", got.Converged, want.Converged)
	case math.Float64bits(got.PrimalRes) != math.Float64bits(want.PrimalRes):
		return fmt.Sprintf("PrimalRes %v, want %v", got.PrimalRes, want.PrimalRes)
	case math.Float64bits(got.DualRes) != math.Float64bits(want.DualRes):
		return fmt.Sprintf("DualRes %v, want %v", got.DualRes, want.DualRes)
	}
	for i := range want.Beta {
		if math.Float64bits(got.Beta[i]) != math.Float64bits(want.Beta[i]) {
			return fmt.Sprintf("Beta[%d] %v, want %v", i, got.Beta[i], want.Beta[i])
		}
		if math.Float64bits(got.U[i]) != math.Float64bits(want.U[i]) {
			return fmt.Sprintf("U[%d] %v, want %v", i, got.U[i], want.U[i])
		}
	}
	return ""
}

// vecLambdaMax is ‖(I⊗X)ᵀ vec(Y)‖∞ of a full design, the smallest λ at
// which the LASSO estimate is zero.
func vecLambdaMax(full *varsim.Design) float64 {
	lmax := 0.0
	for j := 0; j < full.P; j++ {
		aty := mat.AtVecWorkers(full.X, full.Y.Col(j, nil), 1)
		lmax = max(lmax, mat.NormInf(aty))
	}
	return lmax
}

// TestVecSolveMatchesPerEquationLoop holds the Kronecker consensus solver —
// one shared factorization per local sample range, one x-update per group,
// the fused passes and the screened stopping test — to the per-equation loop
// bit for bit: Beta, U, Iters, Converged and both residuals of Solve at
// λ = 0, mid-path and ≥ λ_max, of warm-started and iteration-capped solves
// and of SolveProjected, at every rank count from 1 to 5 (M = 30 samples
// over P = 10 equations leaves ranks with partial equations, with two and
// three groups, and with partial first and last equations of equal length
// over different samples) and kernel budgets 1 and 3. At P = 40 on 2 ranks
// each rank holds 20 whole equations: one group.
func TestVecSolveMatchesPerEquationLoop(t *testing.T) {
	type shape struct{ p, n, ranks, readers, workers int }
	var shapes []shape
	for ranks := 1; ranks <= 5; ranks++ {
		for readers := 1; readers <= min(2, ranks); readers++ {
			for _, workers := range []int{1, 3} {
				shapes = append(shapes, shape{10, 31, ranks, readers, workers})
			}
		}
	}
	shapes = append(shapes, shape{40, 61, 2, 1, 1})
	// What the cases covered: the most groups on one rank, converged solves.
	maxGroups, converged := 0, atomic.Int64{}
	for _, sh := range shapes {
		const d = 1
		series, _ := buildSeries(uint64(47+sh.p), sh.p, d, sh.n)
		full := varsim.NewDesign(series, d, true)
		m := full.X.Rows
		lmax := vecLambdaMax(full)
		groups := make([]int, sh.ranks)
		err := mpi.Run(sh.ranks, func(c *mpi.Comm) error {
			var local *varsim.Design
			if c.Rank() < sh.readers {
				lo, hi := mpi.RowBlock(m, sh.readers, c.Rank())
				targets := make([]int, hi-lo)
				for i := range targets {
					targets[i] = d + lo + i
				}
				local = varsim.NewDesignFromRows(series, d, true, targets)
			}
			b, err := Assemble(c, local, sh.readers)
			if err != nil {
				return err
			}
			rho := GlobalRho(c, b)
			f, err := NewVecFactorizationWorkers(c, b, rho, sh.workers)
			if err != nil {
				return err
			}
			g, err := newPerEquationVec(b, rho, sh.workers)
			if err != nil {
				return err
			}
			_, facs, _, err := vecGroups(b, rho, sh.workers)
			if err != nil {
				return err
			}
			distinct := map[*admm.Factorization]bool{}
			for _, fac := range facs {
				distinct[fac] = true
			}
			groups[c.Rank()] = len(distinct)
			if sh.p == 40 && groups[c.Rank()] != 1 {
				return fmt.Errorf("rank %d: %d groups over 20 whole equations, want 1", c.Rank(), groups[c.Rank()])
			}
			check := func(what string, got, want *admm.Result) error {
				if diff := sameResult(got, want); diff != "" {
					return fmt.Errorf("rank %d, %s: %s", c.Rank(), what, diff)
				}
				return nil
			}
			opts := admm.Options{MaxIter: 400}
			var warm *admm.Result
			for _, lambda := range []float64{0, 1.1 * lmax, 0.3 * lmax, 0.02 * lmax} {
				o := opts
				if warm != nil {
					o.WarmZ, o.WarmU = warm.Beta, warm.U
				}
				got, want := f.Solve(lambda, &o), g.solve(c, lambda, &o)
				if err := check(fmt.Sprintf("Solve λ=%.3g·λmax", lambda/lmax), got, want); err != nil {
					return err
				}
				if got.Converged {
					converged.Add(1)
				}
				warm = got
			}
			capped := admm.Options{MaxIter: 3, WarmZ: warm.Beta, WarmU: warm.U}
			got, want := f.Solve(0.1*lmax, &capped), g.solve(c, 0.1*lmax, &capped)
			if err := check("Solve capped at 3 iterations", got, want); err != nil {
				return err
			}
			if got.Converged {
				return fmt.Errorf("rank %d: a 3-iteration cap converged; the case tests nothing", c.Rank())
			}
			support := make([]bool, b.GlobalCols())
			for i, v := range warm.Beta {
				support[i] = v != 0 || i%7 == 0
			}
			for _, o := range []admm.Options{opts, {MaxIter: 400, WarmZ: warm.Beta, WarmU: warm.U}} {
				got, want := f.SolveProjected(support, &o), g.solveProjected(c, support, &o)
				if err := check("SolveProjected", got, want); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%+v: %v", sh, err)
		}
		maxGroups = max(maxGroups, slices.Max(groups))
	}
	if maxGroups != 3 || converged.Load() == 0 {
		t.Fatalf("cases reached %d groups on a rank and %d converged solves; want 3 and some", maxGroups, converged.Load())
	}
}

// BenchmarkVecSolve is one bootstrap of dist_mix's VAR job on the
// Kronecker path: 2 ranks, 1 reader, p = 40, n = 600, order 1 with an
// intercept. Per op each rank builds its factorizations, sweeps an 8-λ warm
// path with Solve and runs one SolveProjected; the assembly is set-up.
func BenchmarkVecSolve(b *testing.B) {
	const p, n, d, ranks, readers = 40, 600, 1, 2, 1
	series, _ := buildSeries(48, p, d, n+d)
	full := varsim.NewDesign(series, d, true)
	lambdas := admm.LogSpaceLambdas(vecLambdaMax(full), 1e-3, 8)
	blocks := make([]*VecBlock, ranks)
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		var local *varsim.Design
		if c.Rank() < readers {
			local = full
		}
		var err error
		blocks[c.Rank()], err = Assemble(c, local, readers)
		return err
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		err := mpi.Run(ranks, func(c *mpi.Comm) error {
			blk := blocks[c.Rank()]
			f, err := NewVecFactorizationWorkers(c, blk, GlobalRho(c, blk), 1)
			if err != nil {
				return err
			}
			var r *admm.Result
			for _, lambda := range lambdas {
				o := admm.Options{}
				if r != nil {
					o.WarmZ, o.WarmU = r.Beta, r.U
				}
				r = f.Solve(lambda, &o)
			}
			support := make([]bool, len(r.Beta))
			for i, v := range r.Beta {
				support[i] = v != 0
			}
			f.SolveProjected(support, &admm.Options{})
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
