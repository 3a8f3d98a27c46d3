package main

// Every import of uoivar/internal/... lives in this file, one thin adapter
// per function. The list of symbols used here is the benchmark's import
// contract (README.md, "Import contract"): a refactor that renames one
// needs a benchmark follow-up first.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"uoivar"
	"uoivar/internal/admm"
	"uoivar/internal/datagen"
	"uoivar/internal/distio"
	"uoivar/internal/kron"
	"uoivar/internal/mat"
	"uoivar/internal/model"
	"uoivar/internal/monitor"
	"uoivar/internal/mpi"
	"uoivar/internal/resample"
	"uoivar/internal/serve"
	"uoivar/internal/stream"
	"uoivar/internal/trace"
	"uoivar/internal/varsim"
)

// replayCells is how many of a fit's first selection cells the traced run
// drives through the layers' exported functions.
const replayCells = 2

// ---- datagen ----

// finance is the generated sector-structured VAR dataset.
type finance = datagen.Finance

// regressionNoise is the generator's noise level, the unit of pred_err_ratio.
const regressionNoise = 0.5

// holdout is the part of a generated regression kept out of every fit.
type holdout struct {
	x *mat.Dense
	y []float64
}

// predErr is the RMSE of beta's predictions on the held-out rows over the
// generator's noise level.
func (h *holdout) predErr(beta []float64) float64 {
	pred := mat.MulVec(h.x, beta)
	sum := 0.0
	for i, v := range pred {
		e := h.y[i] - v
		sum += e * e
	}
	return math.Sqrt(sum/float64(len(pred))) / regressionNoise
}

// makeRegression draws n+hold rows of one linear model and splits them into
// the dataset the program sees and the held-out rows that score it.
func makeRegression(seed uint64, n, hold, p, nnz int) (*uoivar.Regression, *holdout) {
	all := datagen.MakeRegression(seed, n+hold, p, &datagen.RegressionOptions{NNZ: nnz, NoiseStd: regressionNoise})
	fit := &uoivar.Regression{X: all.X.SubRows(0, n), Y: all.Y[:n], TrueBeta: all.TrueBeta}
	return fit, &holdout{x: all.X.SubRows(n, n+hold), y: all.Y[n:]}
}

// ---- model ----

// setModelLayer times the artifact codec on art and a direct prediction.
func (c *runCtx) setModelLayer(art *uoivar.ModelArtifact, path string, predict predictFn) {
	const reps = 20
	var data []byte
	c.rep.set("model.encode_ms", 1e3*medianOf(reps, func() { data, _ = art.Encode() }))
	c.rep.set("model.artifact_kb", float64(len(data))/1024)
	c.rep.set("model.decode_ms", 1e3*medianOf(reps, func() { _, _ = model.Decode(data) }))
	c.rep.set("model.save_ms", 1e3*medianOf(reps, func() { _ = model.Save(path, art) }))
	if p, err := model.NewPredictor(art); err == nil {
		c.rep.set("model.forecast_us", 1e6*medianOf(200, func() { _, _ = predict(p) }))
	}
}

// ---- cell replay: resample → mat → admm at a workload's exact shapes ----

// cellReplay accumulates the per-call timings of replayed selection cells.
type cellReplay struct {
	draw, gather, ata, chol, factor samples // one sample per cell, seconds
	solve, ols                      samples // one sample per call
	sweep                           float64 // total λ-path time, seconds
	iters, solves                   int
	gatherMB, ataFlops              float64 // computed from shapes
}

func (s *samples) time(fn func()) { *s = append(*s, timeIt(fn)) }

// publish turns the replay into the mat/admm/resample metrics and the
// layers-sum check uoi.selection_explained for a fit with diagnostics d.
func (r *cellReplay) publish(c *runCtx, b1 int, d fitDiag) {
	c.rep.set("resample.draw_us", 1e6*r.draw.median())
	c.rep.set("mat.select_rows_ms", 1e3*r.gather.median())
	c.rep.set("mat.select_rows_mb", r.gatherMB)
	c.rep.set("mat.ata_ms", 1e3*r.ata.median())
	if t := r.ata.median(); t > 0 {
		c.rep.set("mat.ata_gflops", r.ataFlops/t/1e9)
	}
	c.rep.set("mat.chol_ms", 1e3*r.chol.median())
	c.rep.set("admm.factor_ms", 1e3*r.factor.median())
	c.rep.set("admm.solve_us", 1e6*r.solve.median())
	c.rep.set("admm.ols_us", 1e6*r.ols.median())
	if r.solves > 0 && r.iters > 0 {
		perIter := r.sweep / float64(r.iters)
		c.rep.set("admm.us_per_iter", 1e6*perIter)
		c.rep.set("admm.iters_per_solve", float64(r.iters)/float64(r.solves))
		if d.selection > 0 {
			perCell := r.draw.median() + r.gather.median() + r.factor.median()
			c.rep.set("uoi.selection_explained", (float64(b1)*perCell+float64(d.iters)*perIter)/d.selection)
		}
	}
}

// replayLassoCells drives the first selection cells of a UoI-LASSO fit:
// bootstrap draw, row gather, Gram, Cholesky, the warm-chained λ path, and
// OLS on the path's supports at the estimation training shape.
func replayLassoCells(c *runCtx, reg *uoivar.Regression, b1 int, d fitDiag) {
	x, y := reg.X, reg.Y
	n, p := x.Rows, x.Cols
	kw := runtime.GOMAXPROCS(0)
	root := resample.NewRNG(fitCfgSeed)
	r := cellReplay{gatherMB: 2 * float64(n*p*8) / 1e6, ataFlops: float64(n) * float64(p) * float64(p)}
	for k := 0; k < min(b1, replayCells); k++ {
		rng := root.Derive(uint64(k) + 1)
		var idx []int
		r.draw.time(func() { idx = resample.Bootstrap(rng, n) })
		var xb *mat.Dense
		r.gather.time(func() { xb = x.SelectRows(idx) })
		yb := make([]float64, len(idx))
		for i, v := range idx {
			yb[i] = y[v]
		}
		var gram *mat.Dense
		r.ata.time(func() { gram = mat.AtAWorkers(xb, kw) })
		r.chol.time(func() { _, _ = mat.NewCholeskyBlockedWorkers(mat.AddRidge(gram, admm.MeanDiag(gram)), kw) })
		var f *admm.Factorization
		var err error
		r.factor.time(func() { f, err = admm.NewFactorizationWorkers(xb, yb, 0, kw) })
		if err != nil {
			c.rep.attempt("replay factorization", err)
			return
		}
		var wz, wu []float64
		var supports [][]int
		for _, lam := range d.lambdas {
			opts := admm.Options{WarmZ: wz, WarmU: wu}
			var res *admm.Result
			r.solve.time(func() { res = f.Solve(lam, &opts) })
			wz, wu = res.Beta, res.U
			r.sweep += r.solve[len(r.solve)-1]
			r.iters += res.Iters
			r.solves++
			if s := admm.Support(res.Beta, 1e-7); len(s) > 0 {
				supports = append(supports, s)
			}
		}
		train, _ := resample.TrainEvalSplit(rng, n, 0.8)
		xt := x.SelectRows(train)
		yt := make([]float64, len(train))
		for i, v := range train {
			yt[i] = y[v]
		}
		for _, s := range supports {
			r.ols.time(func() { admm.OLSOnSupportWorkers(xt, yt, s, kw) })
		}
	}
	r.publish(c, b1, d)
	setMulABt(c, 1, p)
}

// setMulABt times the prediction GEMM of a model with coefficient matrix
// rows x p on one input row.
func setMulABt(c *runCtx, rows, p int) {
	in, coef := mat.NewDense(1, p), mat.NewDense(rows, p)
	c.rep.set("mat.mulabt_us", 1e6*medianOf(200, func() { mat.MulABtWorkers(in, coef, 0) }))
}

// varReplay describes the VAR cells to replay. warm and anchor reproduce
// the streaming refit's cells: a previous model's vec(B) seeding a
// smallest-λ-first sweep, and bootstrap blocks at absolute stream rows.
type varReplay struct {
	series *mat.Dense
	b1     int
	kw     int
	warm   []float64
	anchor int64 // <0: window-relative moving blocks
}

// replayVARCells drives the first selection cells of an order-1 UoI-VAR
// fit: block-bootstrap draw, lag-design row gather, the shared Gram and
// Cholesky, and every equation's warm-chained λ path.
func replayVARCells(c *runCtx, v varReplay, d fitDiag) {
	series := v.series
	p := series.Cols
	m := series.Rows - 1
	blockLen := int(math.Ceil(math.Sqrt(float64(m))))
	root := resample.NewRNG(fitCfgSeed)
	var r cellReplay
	order := make([]int, len(d.lambdas))
	for i := range order {
		order[i] = i
		if v.warm != nil {
			order[i] = len(order) - 1 - i
		}
	}
	for k := 0; k < min(v.b1, replayCells); k++ {
		rng := root.Derive(uint64(k) + 1)
		var idx []int
		r.draw.time(func() {
			if v.anchor >= 0 {
				idx = resample.AnchoredBlockBootstrap(rng, v.anchor+1, m, blockLen)
			} else {
				idx = resample.MovingBlockBootstrap(rng, m, blockLen)
			}
		})
		targets := make([]int, len(idx))
		for i, t := range idx {
			targets[i] = 1 + t
		}
		var des *varsim.Design
		r.gather.time(func() { des = varsim.NewDesignFromRows(series, 1, true, targets) })
		q := des.X.Cols
		r.gatherMB = 2 * float64(len(targets)*(q+p)*8) / 1e6
		r.ataFlops = float64(des.X.Rows) * float64(q) * float64(q)
		var gram *mat.Dense
		r.ata.time(func() { gram = mat.AtAWorkers(des.X, v.kw) })
		var f *admm.Factorization
		var err error
		r.chol.time(func() { f, err = admm.NewFactorizationGramWorkers(gram, 0, v.kw) })
		if err != nil {
			c.rep.attempt("replay factorization", err)
			return
		}
		r.factor = append(r.factor, r.ata[len(r.ata)-1]+r.chol[len(r.chol)-1])
		yCol := make([]float64, des.X.Rows)
		for eq := 0; eq < p; eq++ {
			t0 := time.Now()
			des.Y.Col(eq, yCol)
			aty := mat.AtVecWorkers(des.X, yCol, v.kw)
			var wz, wu []float64
			if v.warm != nil {
				wz = v.warm[eq*q : (eq+1)*q]
			}
			var loose *admm.Result // the solve at the smallest λ
			for _, j := range order {
				opts := admm.Options{WarmZ: wz, WarmU: wu}
				var res *admm.Result
				r.solve.time(func() { res = f.SolveRHS(aty, d.lambdas[j], &opts) })
				wz, wu = res.Beta, res.U
				r.iters += res.Iters
				r.solves++
				if j == len(order)-1 {
					loose = res
				}
			}
			r.sweep += time.Since(t0).Seconds()
			if s := admm.Support(loose.Beta, 1e-7); k == 0 && len(s) > 0 {
				r.ols.time(func() { admm.OLSOnSupportWorkers(des.X, yCol, s, v.kw) })
			}
		}
	}
	r.publish(c, v.b1, d)
	setMulABt(c, p, p)
}

// ---- mpi ----

// mpiMeter collects, per job, what the ranks of that job's Run did. It
// reads mpi.ProcessStats only after Run has returned, so the counts are
// complete and repeat exactly. With on false (the untraced run) it leaves
// the process-wide statistics switched off.
type mpiMeter struct {
	on                bool
	calls, mb, inCall samples
}

func (m *mpiMeter) begin() {
	if !m.on {
		return
	}
	mpi.ResetProcessStats()
	mpi.EnableProcessStats(true)
}

func (m *mpiMeter) end() {
	if !m.on {
		return
	}
	mpi.EnableProcessStats(false)
	var calls, bytes int64
	var worst time.Duration
	for _, s := range mpi.ProcessStats() {
		c, b, d := s.Total()
		calls += c
		bytes += b
		worst = max(worst, d)
	}
	m.calls = append(m.calls, float64(calls))
	m.mb = append(m.mb, float64(bytes)/1e6)
	m.inCall = append(m.inCall, worst.Seconds())
}

// publish reports the per-fit medians. wait_s is the time the slowest rank
// spent inside mpi calls, which on a shared-memory world is waiting.
func (m *mpiMeter) publish(c *runCtx, prefix string) {
	c.rep.set(prefix+"_calls_per_fit", m.calls.median())
	c.rep.set(prefix+"_mb_per_fit", m.mb.median())
	c.rep.set(prefix+"_wait_s_per_fit", m.inCall.median())
}

// mpiMicrocalls times the primitives both distributed jobs are built from.
func mpiMicrocalls(c *runCtx, ranks, p int) {
	c.rep.set("mpi.run_spawn_us", 1e6*medianOf(50, func() {
		_ = mpi.Run(ranks, func(*mpi.Comm) error { return nil })
	}))
	const reps = 2000
	var allreduce, get float64
	err := mpi.Run(ranks, func(comm *mpi.Comm) error {
		buf := make([]float64, p)
		t := timeIt(func() {
			for i := 0; i < reps; i++ {
				comm.Allreduce(mpi.OpSum, buf)
			}
		})
		win := comm.CreateWin(make([]float64, p))
		win.Fence()
		g := timeIt(func() {
			for i := 0; i < reps; i++ {
				win.Get((comm.Rank()+1)%ranks, 0, buf)
			}
		})
		win.Fence()
		win.Free()
		if comm.Rank() == 0 {
			allreduce, get = t/reps, g/reps
		}
		return nil
	})
	c.rep.attempt("mpi microcalls", err)
	c.rep.set("mpi.allreduce_us", 1e6*allreduce)
	c.rep.set("mpi.get_us", 1e6*get)
}

// replayConsensusCells drives the lasso job's first selection cells on the
// job's own rank count: rank-local bootstrap, row gather, the collective
// factorization, and the warm-chained consensus λ path.
func replayConsensusCells(c *runCtx, rig *distRig, d fitDiag) {
	sz := rig.sz
	var r cellReplay
	var consensus samples
	err := mpi.Run(sz.Ranks, func(comm *mpi.Comm) error {
		block, err := distio.RandomizedDistribute(comm, rig.hbfPath, distSeed)
		if err != nil {
			return err
		}
		x, y := block.XY()
		n := x.Rows
		lead := comm.Rank() == 0
		root := resample.NewRNG(fitCfgSeed)
		for k := 0; k < min(sz.LB1, replayCells); k++ {
			rng := root.Derive(uint64(k) + 1).Derive(uint64(comm.Rank()) + 1)
			var idx []int
			draw := timeIt(func() { idx = resample.Bootstrap(rng, n) })
			var xb *mat.Dense
			gather := timeIt(func() { xb = x.SelectRows(idx) })
			yb := make([]float64, n)
			for i, v := range idx {
				yb[i] = y[v]
			}
			// The factorization's two kernels on their own, on every rank so
			// none waits for another at the collective that follows.
			var gram *mat.Dense
			ata := timeIt(func() { gram = mat.AtAWorkers(xb, 1) })
			chol := timeIt(func() { _, _ = mat.NewCholeskyBlockedWorkers(mat.AddRidge(gram, admm.MeanDiag(gram)), 1) })
			var solver *admm.ConsensusSolver
			factor := timeIt(func() { solver, err = admm.NewConsensusSolverWorkers(comm, xb, yb, 0, 1) })
			if err != nil {
				return err
			}
			if lead {
				r.draw, r.gather, r.factor = append(r.draw, draw), append(r.gather, gather), append(r.factor, factor)
				r.ata, r.chol = append(r.ata, ata), append(r.chol, chol)
				r.gatherMB = 2 * float64(n*x.Cols*8) / 1e6
				r.ataFlops = float64(n) * float64(x.Cols) * float64(x.Cols)
			}
			var wz, wu []float64
			for _, lam := range d.lambdas {
				opts := admm.Options{WarmZ: wz, WarmU: wu}
				var res *admm.Result
				t := timeIt(func() { res = solver.Solve(lam, &opts) })
				wz, wu = res.Beta, res.U
				if lead {
					consensus = append(consensus, t)
					r.sweep += t
					r.iters += res.Iters
					r.solves++
				}
			}
		}
		return nil
	})
	c.rep.attempt("consensus replay", err)
	if err != nil || r.solves == 0 {
		return
	}
	r.solve = consensus
	c.rep.set("admm.consensus_solve_ms", 1e3*consensus.median())
	c.rep.set("admm.consensus_iters", float64(r.iters)/float64(r.solves))
	r.publish(c, sz.LB1, d)
	setMulABt(c, 1, sz.P)
}

// ---- kron ----

// replayKronAssemble times one distributed Kronecker assembly of the VAR
// job's full design, readers and ranks as in the job.
func replayKronAssemble(c *runCtx, series *mat.Dense, ranks, nReaders int) {
	var assemble samples
	var mb, gets float64
	for rep := 0; rep < 5; rep++ {
		times := make([]float64, ranks)
		err := mpi.Run(ranks, func(comm *mpi.Comm) error {
			var local *varsim.Design
			if comm.Rank() < nReaders {
				// One reader holds every sample.
				local = varsim.NewDesign(series, 1, true)
			}
			vb, err := kron.Assemble(comm, local, nReaders)
			if err != nil {
				return err
			}
			times[comm.Rank()] = vb.AssembleTime.Seconds()
			if comm.Rank() == 0 {
				gets = float64(vb.GlobalRows())
				mb = gets * float64(vb.Q+vb.P) * 8 / 1e6
			}
			return nil
		})
		c.rep.attempt("kron replay", err)
		if err != nil {
			return
		}
		worst := 0.0
		for _, t := range times {
			worst = max(worst, t)
		}
		assemble = append(assemble, worst)
	}
	c.rep.set("kron.assemble_ms", 1e3*assemble.median())
	c.rep.set("kron.assemble_mb", mb) // computed: one Get of a (q+p)-row per vec row
	c.rep.set("kron.gets_per_assemble", gets)
}

// ---- serve + stream ----

// serveRig is an in-process server wired as cmd/uoiserve -stream wires it,
// with that command's flag defaults: its own tracer and monitor, no metrics
// registry, no access log.
type serveRig struct {
	srv  *serve.Server
	mgr  *stream.Manager
	addr string
}

func startServer(modelsDir string, window, refitEvery int, batchWindow time.Duration) (*serveRig, error) {
	reg := serve.NewRegistry()
	entries, err := reg.LoadDir(modelsDir)
	if err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("no artifacts under %s", modelsDir)
	}
	tr := trace.New()
	mon := monitor.New("uoiserve")
	mon.SetState(func() map[string]any {
		st := map[string]any{"models": reg.Len()}
		for k, v := range tr.Counters() {
			st[k] = v
		}
		return st
	})
	mgr := stream.NewManager(reg, stream.Options{Window: window, RefitEvery: refitEvery, Tracer: tr})
	mon.SetDegraded(mgr.Degraded)
	srv := serve.New(serve.Config{
		Registry:     reg,
		BatchWindow:  batchWindow,
		BatchMax:     64,
		CacheEntries: 256,
		MaxInflight:  256,
		Timeout:      30 * time.Second,
		Tracer:       tr,
		Monitor:      mon,
		Streams:      mgr,
	})
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &serveRig{srv: srv, mgr: mgr, addr: addr}, nil
}

// stop drains the server and waits for any refit still running.
func (r *serveRig) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := r.srv.Shutdown(ctx)
	if qerr := r.mgr.Quiesce(ctx); err == nil {
		err = qerr
	}
	return err
}
