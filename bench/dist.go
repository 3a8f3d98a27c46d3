package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"uoivar"
)

// distSizes fixes dist_mix: a lasso job over an HBF file and a VAR job over
// a pool of generated series, both on Ranks simulated MPI ranks.
type distSizes struct {
	Ranks int

	Rows, P, NNZ   int // lasso job: HBF file of Rows x (P+1), response last
	Chunk, Stripes int
	LB1, LB2, LQ   int

	VP, VN        int // VAR job
	VB1, VB2, VQ  int
	VPool         int
	NReaders      int
	Hold, VHold   int // held-out rows scoring the lasso and VAR models
	F1Floor       float64
	RelErrCeil    float64
	SerialDiffMax float64
}

func distMixSizes(short bool) distSizes {
	if short {
		return distSizes{Ranks: 2, Rows: 512, P: 12, NNZ: 3, Chunk: 64, Stripes: 2, LB1: 2, LB2: 2, LQ: 3,
			VP: 4, VN: 120, VB1: 2, VB2: 2, VQ: 3, VPool: 1, NReaders: 1, Hold: 128, VHold: 64, F1Floor: 0.05, RelErrCeil: 2, SerialDiffMax: 1}
	}
	return distSizes{Ranks: 2, Rows: 8192, P: 160, NNZ: 12, Chunk: 512, Stripes: 4, LB1: 6, LB2: 3, LQ: 10,
		VP: 40, VN: 600, VB1: 4, VB2: 2, VQ: 8, VPool: 24, NReaders: 1, Hold: 4096, VHold: 1024, F1Floor: 0.15, RelErrCeil: 0.8, SerialDiffMax: 0.05}
}

// distSeed drives the randomized distribution's permutation.
const distSeed = 11

type distRig struct {
	sz      distSizes
	reg     *uoivar.Regression
	hold    *holdout
	hbfPath string
	hbfMB   float64
	create  float64         // seconds spent writing the HBF file
	series  []*uoivar.Dense // what the VAR jobs see
	fins    []*finance      // their generators, with held-out rows
}

// newDistRig generates dist_mix's inputs and writes the HBF file into dir.
func newDistRig(c *runCtx, sz distSizes, dir string) (*distRig, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := &distRig{sz: sz, hbfPath: filepath.Join(dir, "lasso.hbf")}
	r.reg, r.hold = makeRegression(poolSeed(c.seed, 0), sz.Rows, sz.Hold, sz.P, sz.NNZ)
	var err error
	r.create = timeIt(func() {
		_, err = r.reg.WriteHBF(r.hbfPath, uoivar.HBFCreateOptions{ChunkRows: sz.Chunk, Stripes: sz.Stripes})
	})
	if err != nil {
		return nil, fmt.Errorf("write hbf: %w", err)
	}
	r.hbfMB = float64(sz.Rows*(sz.P+1)*8) / 1e6
	for i := 0; i < sz.VPool; i++ {
		fin := uoivar.MakeFinance(poolSeed(c.seed, 100+i), sz.VP, sz.VN+sz.VHold, nil)
		r.series = append(r.series, fin.Series.SubRows(0, sz.VN))
		r.fins = append(r.fins, fin)
	}
	return r, nil
}

// lassoJobOut is what rank 0 of a lasso job hands back.
type lassoJobOut struct {
	beta               []float64
	art                *uoivar.ModelArtifact
	diag               fitDiag
	readS, distributeS float64 // max over ranks
	retries            int64
	distS, fitS, saveS float64 // rank 0's wall split: distribute, fit, save
}

// lassoJob is the 2-rank lasso job: open the HBF file, randomized
// distribution, consensus-ADMM UoI-LASSO, artifact on disk.
func (r *distRig) lassoJob(ranks int, artPath string) (*lassoJobOut, error) {
	sz := r.sz
	cfg := &uoivar.LassoConfig{B1: sz.LB1, B2: sz.LB2, Q: sz.LQ, Seed: fitCfgSeed, KernelWorkers: 1}
	outs := make([]lassoJobOut, ranks)
	err := uoivar.Run(ranks, func(comm *uoivar.Comm) error {
		o := &outs[comm.Rank()]
		var block *uoivar.Block
		var err error
		o.distS = timeIt(func() { block, err = uoivar.RandomizedDistribute(comm, r.hbfPath, distSeed) })
		if err != nil {
			return err
		}
		o.readS, o.distributeS, o.retries = block.ReadTime.Seconds(), block.DistributeTime.Seconds(), block.ReadRetries
		x, y := block.XY()
		var res *uoivar.LassoResult
		o.fitS = timeIt(func() { res, err = uoivar.FitLassoDistributed(comm, x, y, cfg, uoivar.Grid{}) })
		if err != nil {
			return err
		}
		if comm.Rank() != 0 {
			return nil
		}
		o.beta = res.Beta
		o.diag = lassoDiag(res)
		o.art = uoivar.LassoArtifact(res, cfg)
		o.saveS = timeIt(func() { err = uoivar.SaveModel(artPath, o.art) })
		return err
	})
	if err != nil {
		return nil, err
	}
	out := outs[0]
	for _, o := range outs[1:] {
		out.readS = max(out.readS, o.readS)
		out.distributeS = max(out.distributeS, o.distributeS)
		out.retries += o.retries
	}
	return &out, nil
}

type varJobOut struct {
	a, mu []float64
	art   *uoivar.ModelArtifact
	diag  fitDiag
}

// varJob is the 2-rank VAR job: distributed Kronecker assembly from one
// reader rank, consensus ADMM, artifact on disk.
func (r *distRig) varJob(i int, artPath string) (*varJobOut, error) {
	sz := r.sz
	cfg := &uoivar.VARConfig{Order: 1, B1: sz.VB1, B2: sz.VB2, Q: sz.VQ, Seed: fitCfgSeed, KernelWorkers: 1}
	var out varJobOut
	err := uoivar.Run(sz.Ranks, func(comm *uoivar.Comm) error {
		var series *uoivar.Dense
		if comm.Rank() < sz.NReaders {
			series = r.series[i]
		}
		res, err := uoivar.FitVARDistributed(comm, series, cfg, &uoivar.VARDistOptions{NReaders: sz.NReaders})
		if err != nil || comm.Rank() != 0 {
			return err
		}
		out.a, out.mu = res.A[0].Data, res.Mu
		out.diag = varDiag(res)
		out.art = uoivar.VARArtifact(res, cfg)
		return uoivar.SaveModel(artPath, out.art)
	})
	if err != nil {
		return nil, err
	}
	return &out, nil
}

func runDistMix(c *runCtx) error {
	sz := distMixSizes(c.short)
	c.detail["sizes"] = sz
	var rig *distRig
	var setupErr error
	setup := startSetup(func() { rig, setupErr = newDistRig(c, sz, c.tmpDir) })
	if setupErr != nil {
		return setupErr
	}
	creates := samples{rig.create}
	lassoArt := filepath.Join(c.tmpDir, "lasso.uoim")
	varArt := filepath.Join(c.tmpDir, "var.uoim")

	// Discarded warm-up: one job of each kind.
	var err error
	firstS := timeIt(func() { _, err = rig.lassoJob(sz.Ranks, lassoArt) })
	c.rep.attempt("warm-up lasso job", err)
	_, err = rig.varJob(0, varArt)
	c.rep.attempt("warm-up var job", err)

	var lasso, vars samples
	var overhead overheadMeter
	var lastLasso *lassoJobOut
	lastVar := make([]*varJobOut, sz.VPool)
	lastVarIdx := 0
	var reads, distributes, fitsS samples
	lassoMPI, varMPI := mpiMeter{on: c.traced}, mpiMeter{on: c.traced}
	var rates samples // jobs per second, one sample per cycle
	alloc := startAllocMeter()
	dl := newDeadline(c.measureSeconds())
	for op := 0; dl.more(); op++ {
		cycle := time.Now()
		done := 0
		tr := c.opTracer(op)
		root := tr.start(nil, op, "harness", "op")
		lassoMPI.begin()
		sp := tr.start(root, op, "uoi", "lasso_job")
		var lo *lassoJobOut
		t := timeIt(func() { lo, err = rig.lassoJob(sz.Ranks, lassoArt) })
		sp.end()
		lassoMPI.end()
		c.rep.attempt("lasso job", err)
		if err == nil {
			done++
			lasso = append(lasso, t)
			overhead.add(tr, t)
			lastLasso = lo
			reads = append(reads, lo.readS)
			distributes = append(distributes, lo.distributeS)
			fitsS = append(fitsS, lo.fitS)
			// Rank 0's split of the job, as child spans of the job.
			tr.record(sp, op, "distio", "distribute", 0, lo.distS)
			tr.record(sp, op, "uoi", "fit_distributed", lo.distS, lo.fitS)
			tr.record(sp, op, "model", "save", lo.distS+lo.fitS, lo.saveS)
		}

		i := op % sz.VPool
		varMPI.begin()
		sp = tr.start(root, op, "uoi", "var_job")
		var vo *varJobOut
		t = timeIt(func() { vo, err = rig.varJob(i, varArt) })
		sp.end()
		varMPI.end()
		c.rep.attempt("var job", err)
		if err == nil {
			done++
			vars = append(vars, t)
			lastVar[i], lastVarIdx = vo, i
		}
		root.end()
		rates = append(rates, float64(done)/time.Since(cycle).Seconds())
		alloc.pause()
		setup.spread(dl, func() {
			again, err := newDistRig(c, sz, filepath.Join(c.tmpDir, "again"))
			c.rep.attempt("set-up repeat", err)
			if err == nil {
				creates = append(creates, again.create)
			}
		})
		alloc.resume()
	}
	allocMB := alloc.perOpMB(len(lasso))
	if lastLasso == nil || len(vars) == 0 {
		return fmt.Errorf("no job completed")
	}

	// Correctness, outside the timed region.
	var acc accuracy
	acc.add(c, "lasso job", lastLasso.beta, rig.reg.TrueBeta, rig.hold.predErr(lastLasso.beta))
	acc.checkFloors(c, "lasso job", sz.F1Floor, sz.RelErrCeil)
	serial, err := uoivar.FitLasso(rig.reg.X, rig.reg.Y, &uoivar.LassoConfig{B1: sz.LB1, B2: sz.LB2, Q: sz.LQ, Seed: fitCfgSeed})
	c.rep.attempt("serial reference fit", err)
	serialDiff := 0.0
	if err == nil {
		serialDiff = maxAbsDiff(serial.Beta, lastLasso.beta)
		c.rep.check("distributed vs serial", serialDiff <= sz.SerialDiffMax, "distributed lasso differs from serial by %.3g (limit %.3g)", serialDiff, sz.SerialDiffMax)
	}
	probe := rig.reg.X.SubRows(0, 16)
	lassoPredict := predictFn(func(p *uoivar.Predictor) ([]float64, error) { return p.Predict(probe) })
	c.rep.attempt("lasso artifact reload", reloadMatches(lassoArt, lastLasso.art, lassoPredict))
	var vacc accuracy
	for i, vo := range lastVar {
		if vo == nil {
			continue // the time box ended before this series' turn
		}
		fin := rig.fins[i]
		vacc.add(c, fmt.Sprintf("var job %d", i), vo.a, fin.Model.A[0].Data, varPredErr(vo.a, vo.mu, fin.Series, sz.VN, fin.Model.NoiseStd))
	}
	vacc.checkFloors(c, "var jobs", sz.F1Floor, sz.RelErrCeil)
	c.rep.attempt("var artifact reload", reloadMatches(varArt, lastVar[lastVarIdx].art, func(p *uoivar.Predictor) ([]float64, error) {
		return forecastData(p, rig.series[lastVarIdx], 4)
	}))

	c.rep.set("setup_s", setup.s.median())
	c.rep.set("op_p25_ms", 1e3*lasso.p25())
	c.rep.set("aux_p25_ms", 1e3*vars.p25())
	c.rep.set("ops_per_s", rates.quantile(0.75))
	c.rep.set("alloc_mb_per_op", allocMB)
	c.rep.set("peak_rss_mb", setup.runPeakRSSMB())
	publishAccuracy(c, &acc, &vacc) // the two job kinds weigh equally
	c.detail["lasso_job_s"] = lasso
	c.detail["var_job_s"] = vars
	c.logf("lasso job    %s", lasso.describe())
	c.logf("var job      %s", vars.describe())

	if !c.traced {
		return nil
	}
	d := lastLasso.diag
	c.rep.set("uoi.selection_s", d.selection)
	c.rep.set("uoi.estimation_s", d.estimation)
	c.rep.set("uoi.other_s", fitsS.median()-d.selection-d.estimation)
	c.rep.set("uoi.first_fit_s", firstS)
	c.rep.set("uoi.dist_vs_serial_maxdiff", serialDiff)
	c.rep.set("admm.solves_per_fit", float64(d.solves))
	c.rep.set("admm.iters_per_fit", float64(d.iters))
	overhead.publish(c)
	c.rep.set("hbf.create_ms", 1e3*creates.median())
	c.rep.set("hbf.create_mb_per_s", rig.hbfMB/creates.median())
	c.rep.set("hbf.read_ms", 1e3*reads.median())
	c.rep.set("hbf.read_mb_per_s", rig.hbfMB/reads.median())
	c.rep.set("hbf.retries", float64(lastLasso.retries))
	c.rep.set("distio.distribute_ms", 1e3*distributes.median())
	c.rep.set("distio.mb_moved", rig.hbfMB) // computed: every row is Put once
	lassoMPI.publish(c, "mpi.lasso")
	varMPI.publish(c, "mpi.var")

	// The single-rank run of the same job is the scaling baseline.
	var one samples
	for i := 0; i < 3; i++ {
		t := timeIt(func() { _, err = rig.lassoJob(1, lassoArt) })
		c.rep.attempt("1-rank lasso job", err)
		if err == nil {
			one = append(one, t)
		}
	}
	c.rep.set("mpi.lasso_1rank_p50_ms", 1e3*one.median())
	if runtime.NumCPU() >= sz.Ranks && len(one) > 0 {
		// Base: the 1-rank job's median over Ranks times the 2-rank job's.
		c.rep.set("mpi.scaling_eff", one.median()/(float64(sz.Ranks)*lasso.median()))
	} else {
		c.logf("mpi.scaling_eff refused: %d ranks on %d cores", sz.Ranks, runtime.NumCPU())
	}
	c.setModelLayer(lastLasso.art, lassoArt, lassoPredict)
	replayConsensusCells(c, rig, d)
	replayKronAssemble(c, rig.series[0], sz.Ranks, sz.NReaders)
	mpiMicrocalls(c, sz.Ranks, sz.P)
	return nil
}
