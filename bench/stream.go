package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"uoivar"
)

// streamSizes fixes stream_serve. Models is the pool: that many models are
// served and streamed side by side and the cycles rotate over them.
type streamSizes struct {
	P, Window, Slide int
	B1, B2, Q        int
	Models           int
	Forecasts, Conns int // phase-B requests per cycle, over Conns connections
	Horizon          int
	StreamRows       int // rows generated per model beyond the first window
	BatchWindowMs    float64
	F1Floor          float64
	RelErrCeil       float64
}

func streamServeSizes(short bool) streamSizes {
	if short {
		return streamSizes{P: 5, Window: 96, Slide: 8, B1: 3, B2: 2, Q: 3, Models: 1, Forecasts: 10, Conns: 2,
			Horizon: 2, StreamRows: 8 * 16, BatchWindowMs: 2, F1Floor: 0.05, RelErrCeil: 2}
	}
	return streamSizes{P: 40, Window: 768, Slide: 16, B1: 8, B2: 4, Q: 8, Models: 6, Forecasts: 200, Conns: 2,
		Horizon: 4, StreamRows: 16 * 256, BatchWindowMs: 2, F1Floor: 0.2, RelErrCeil: 0.8}
}

// Wire types of the HTTP surface, declared here so the benchmark depends on
// the protocol and not on the server's Go types.
type forecastRequest struct {
	Model   string      `json:"model"`
	History [][]float64 `json:"history"`
	Horizon int         `json:"horizon"`
}

type forecastResponse struct {
	Model    string      `json:"model"`
	Version  int         `json:"version"`
	Forecast [][]float64 `json:"forecast"`
}

type ingestRequest struct {
	Model string      `json:"model"`
	Rows  [][]float64 `json:"rows"`
}

type streamStatus struct {
	Model          string  `json:"model"`
	Refits         int64   `json:"refits"`
	Version        int     `json:"version"`
	LastRefitMs    float64 `json:"last_refit_ms"`
	LastRefitIters int     `json:"last_refit_iters"`
	CellsReused    int64   `json:"cells_reused"`
	LastError      string  `json:"last_error"`
}

// streamModel is one served model and the stream feeding it.
type streamModel struct {
	name    string
	series  *uoivar.Dense
	fin     *finance
	sent    int // rows ingested so far
	version int
	probe   int // counter making forecast bodies distinct
}

type streamRig struct {
	sz     streamSizes
	dir    string
	srv    *serveRig
	client *http.Client
	base   string
	models []*streamModel
}

func (r *streamRig) cfg() *uoivar.VARConfig {
	return &uoivar.VARConfig{Order: 1, B1: r.sz.B1, B2: r.sz.B2, Q: r.sz.Q, Seed: fitCfgSeed}
}

func rowsOf(m *uoivar.Dense, lo, hi int) [][]float64 {
	out := make([][]float64, hi-lo)
	for i := range out {
		out[i] = m.Row(lo + i)
	}
	return out
}

// post sends a JSON body and decodes a 200 reply into out.
func (r *streamRig) post(path string, body []byte, out any) error {
	resp, err := r.client.Post(r.base+path, "application/json", bytes.NewReader(body))
	return decodeReply(path, resp, err, out)
}

func (r *streamRig) get(path string, out any) error {
	resp, err := r.client.Get(r.base + path)
	return decodeReply(path, resp, err, out)
}

// decodeReply reads a reply to the end, requires status 200 and, when out
// is not nil, decodes the JSON body into it.
func decodeReply(path string, resp *http.Response, err error, out any) error {
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// status reads /v1/stream/status, for one model or (name "") for all.
func (r *streamRig) status(name string) ([]streamStatus, error) {
	path := "/v1/stream/status"
	if name != "" {
		path += "?model=" + name
	}
	var reply struct {
		Streams []streamStatus `json:"streams"`
	}
	err := r.get(path, &reply)
	return reply.Streams, err
}

// cellsReused sums the cell-cache hits of every stream.
func (r *streamRig) cellsReused() (n int64) {
	streams, _ := r.status("")
	for _, s := range streams {
		n += s.CellsReused
	}
	return n
}

// forecastBody builds a forecast request no earlier request shares, so the
// response cache is bypassed and every request goes through the batcher.
func (r *streamRig) forecastBody(m *streamModel) (forecastRequest, []byte) {
	m.probe++
	row := append([]float64(nil), m.series.Row(m.probe%m.series.Rows)...)
	row[0] += float64(m.probe)
	req := forecastRequest{Model: m.name, History: [][]float64{row}, Horizon: r.sz.Horizon}
	body, _ := json.Marshal(req)
	return req, body
}

// ingest posts the model's next n rows.
func (r *streamRig) ingest(m *streamModel, n int) (streamStatus, error) {
	body, _ := json.Marshal(ingestRequest{Model: m.name, Rows: rowsOf(m.series, m.sent, m.sent+n)})
	m.sent += n
	var st streamStatus
	err := r.post("/v1/ingest", body, &st)
	return st, err
}

// awaitVersion polls /v1/forecast closed-loop on one connection until a
// response carries a version above m.version. It returns the poll
// latencies; the last one belongs to the first fresh response.
func (r *streamRig) awaitVersion(m *streamModel) (polls samples, fresh forecastResponse, err error) {
	limit := time.Now().Add(60 * time.Second)
	for time.Now().Before(limit) {
		_, body := r.forecastBody(m)
		var resp forecastResponse
		t := timeIt(func() { err = r.post("/v1/forecast", body, &resp) })
		if err != nil {
			return polls, resp, err
		}
		polls = append(polls, t)
		if resp.Version > m.version {
			return polls, resp, nil
		}
	}
	return polls, fresh, fmt.Errorf("model %s: no version above %d within 60 s", m.name, m.version)
}

// newStreamRig builds everything stream_serve needs: generated series,
// initial models on disk, the server wired as cmd/uoiserve -stream wires
// it, and full windows whose first cadence-crossing refit has published.
func newStreamRig(c *runCtx, sz streamSizes, dir string) (*streamRig, error) {
	r := &streamRig{sz: sz, dir: dir}
	r.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: sz.Conns + 1}, Timeout: 90 * time.Second}
	for i := 0; i < sz.Models; i++ {
		fin := uoivar.MakeFinance(poolSeed(c.seed, 200+i), sz.P, sz.Window+sz.StreamRows, nil)
		m := &streamModel{name: fmt.Sprintf("m%d", i), series: fin.Series, fin: fin}
		cfg := r.cfg()
		res, err := uoivar.FitVAR(fin.Series.SubRows(0, sz.Window), cfg)
		if err != nil {
			return nil, fmt.Errorf("initial fit: %w", err)
		}
		if err := uoivar.SaveModel(filepath.Join(dir, m.name+".uoim"), uoivar.VARArtifact(res, cfg)); err != nil {
			return nil, err
		}
		r.models = append(r.models, m)
	}
	srv, err := startServer(dir, sz.Window, sz.Slide, time.Duration(sz.BatchWindowMs*float64(time.Millisecond)))
	if err != nil {
		return nil, err
	}
	r.srv = srv
	r.base = "http://" + srv.addr
	for _, m := range r.models {
		m.version = 1
		if _, err := r.ingest(m, sz.Window); err != nil {
			r.stop()
			return nil, fmt.Errorf("prefill: %w", err)
		}
	}
	for _, m := range r.models {
		_, resp, err := r.awaitVersion(m)
		if err != nil {
			r.stop()
			return nil, fmt.Errorf("prefill: %w", err)
		}
		m.version = resp.Version
	}
	return r, nil
}

func (r *streamRig) stop() error {
	r.client.CloseIdleConnections()
	return r.srv.stop()
}

func runStreamServe(c *runCtx) error {
	sz := streamServeSizes(c.short)
	c.detail["sizes"] = sz
	var rig *streamRig
	var setupErr error
	setup := startSetup(func() { rig, setupErr = newStreamRig(c, sz, filepath.Join(c.tmpDir, "models")) })
	if setupErr != nil {
		return setupErr
	}
	defer rig.stop()

	var fresh, ingests, polls, forecasts, refitMs, refitIters, publish samples
	var overhead overheadMeter
	var rates samples // phase-B forecasts per second, one sample per cycle
	var cellsReused0 int64
	if c.traced {
		cellsReused0 = rig.cellsReused()
	}
	cycles := 0
	var allocMB float64
	dl := newDeadline(c.measureSeconds())
	for op := 0; dl.more(); op++ {
		m := rig.models[op%sz.Models]
		if m.sent+sz.Slide > m.series.Rows {
			break
		}
		tr := c.opTracer(op)
		root := tr.start(nil, op, "harness", "cycle")

		// Phase A: an ingest that crosses the refit cadence, then poll until
		// a forecast carries the new version.
		spA := tr.start(root, op, "stream", "freshness")
		t0 := time.Now()
		spI := tr.start(spA, op, "stream", "ingest")
		_, err := rig.ingest(m, sz.Slide)
		spI.end()
		ingestS := time.Since(t0).Seconds()
		var p samples
		var first forecastResponse
		if err == nil {
			spP := tr.start(spA, op, "serve", "poll_until_fresh")
			p, first, err = rig.awaitVersion(m)
			spP.end()
		}
		freshS := time.Since(t0).Seconds()
		spA.end()
		c.rep.attempt("ingest to fresh forecast", err)
		if err != nil {
			root.end()
			continue
		}
		c.rep.check("one version bump per cadence crossing", first.Version == m.version+1,
			"%s: version went %d -> %d", m.name, m.version, first.Version)
		m.version = first.Version
		cycles++
		fresh = append(fresh, freshS)
		overhead.add(tr, freshS)
		ingests = append(ingests, ingestS)
		polls = append(polls, p[:len(p)-1]...)

		// Phase B: distinct forecasts, closed loop, no refit running.
		type shot struct {
			req  forecastRequest
			body []byte
		}
		shots := make([][]shot, sz.Conns)
		for k := 0; k < sz.Forecasts; k++ {
			req, body := rig.forecastBody(m)
			shots[k%sz.Conns] = append(shots[k%sz.Conns], shot{req, body})
		}
		lat := make([]samples, sz.Conns)
		var sample forecastResponse
		var wg sync.WaitGroup
		alloc := startAllocMeter()
		spB := tr.start(root, op, "serve", "forecasts")
		tB := time.Now()
		for g := 0; g < sz.Conns; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for _, s := range shots[g] {
					var resp forecastResponse
					var err error
					t := timeIt(func() { err = rig.post("/v1/forecast", s.body, &resp) })
					if err == nil && resp.Version != m.version {
						err = fmt.Errorf("%s: forecast answered by version %d, current is %d", m.name, resp.Version, m.version)
					}
					c.rep.attempt("forecast", err)
					if err == nil {
						lat[g] = append(lat[g], t)
						if g == 0 {
							sample = resp
						}
					}
				}
			}(g)
		}
		wg.Wait()
		phaseB := time.Since(tB).Seconds()
		spB.end()
		allocMB += alloc.perOpMB(1)
		root.end()
		answered := 0
		for _, l := range lat {
			forecasts = append(forecasts, l...)
			answered += len(l)
		}
		rates = append(rates, float64(answered)/phaseB)

		// One sampled response per cycle equals the in-process forecast of
		// the artifact the refit left on disk.
		if n := len(shots[0]); n > 0 && sample.Forecast != nil {
			c.rep.attempt("forecast equals in-process predictor", matchesArtifact(filepath.Join(rig.dir, m.name+".uoim"), shots[0][n-1].req, sample))
		}
		if c.traced {
			if st, err := rig.status(m.name); err == nil && len(st) == 1 {
				refitMs = append(refitMs, st[0].LastRefitMs/1e3)
				publish = append(publish, freshS-ingestS-st[0].LastRefitMs/1e3)
				refitIters = append(refitIters, float64(st[0].LastRefitIters))
				c.rep.check("refit healthy", st[0].LastError == "", "%s: %s", m.name, st[0].LastError)
			}
		}
		// A repeat of the set-up is a second server beside the measured one,
		// started and stopped while that one is idle.
		setup.spread(dl, func() {
			again, err := newStreamRig(c, sz, filepath.Join(c.tmpDir, fmt.Sprintf("again%d", op)))
			if err == nil {
				err = again.stop()
			}
			c.rep.attempt("set-up repeat", err)
		})
	}
	if cycles == 0 || len(forecasts) == 0 {
		return fmt.Errorf("no cycle completed")
	}

	// Correctness of the final models, outside the timed region. The rows
	// a model was never fed score its forecasts.
	var acc accuracy
	for _, m := range rig.models {
		art, err := uoivar.LoadModel(filepath.Join(rig.dir, m.name+".uoim"))
		c.rep.attempt("final artifact loads", err)
		if err != nil {
			continue
		}
		from := min(m.sent, m.series.Rows-sz.Slide)
		acc.add(c, m.name, art.A[0].Data, m.fin.Model.A[0].Data, varPredErr(art.A[0].Data, art.Mu, m.series, from, m.fin.Model.NoiseStd))
	}
	acc.checkFloors(c, "served models", sz.F1Floor, sz.RelErrCeil)

	c.rep.set("setup_s", setup.s.median())
	c.rep.set("op_p25_ms", 1e3*fresh.p25())
	c.rep.set("aux_p25_ms", 1e3*forecasts.p25())
	c.rep.set("ops_per_s", rates.quantile(0.75))
	// Heap allocated while serving one cycle's forecasts. What a refit
	// allocates swings by half between draws of the generator; var_network
	// carries that number.
	c.rep.set("alloc_mb_per_op", allocMB/float64(cycles))
	c.rep.set("peak_rss_mb", setup.runPeakRSSMB())
	publishAccuracy(c, &acc)
	c.detail["freshness_s"] = fresh
	c.detail["forecast_quartiles_p99_s"] = []float64{forecasts.p25(), forecasts.median(), forecasts.quantile(0.75), forecasts.quantile(0.99)}
	c.logf("freshness    %s", fresh.describe())
	c.logf("forecast     %s  p99 %.3f ms", forecasts.describe(), 1e3*forecasts.quantile(0.99))

	if !c.traced {
		return nil
	}
	c.rep.set("stream.ingest_ms", 1e3*ingests.median())
	c.rep.set("stream.refit_p50_ms", 1e3*refitMs.median())
	c.rep.set("stream.refit_iters", refitIters.median())
	c.rep.set("stream.freshness_p75_ms", 1e3*fresh.quantile(0.75))
	// What is left of a cycle's freshness after its ingest call and its
	// refit: scheduling the refit and the poll that notices the swap.
	c.rep.set("stream.publish_ms", 1e3*publish.median())
	c.rep.set("serve.batch_window_ms", sz.BatchWindowMs)
	c.rep.set("serve.forecast_p99_ms", 1e3*forecasts.quantile(0.99))
	c.rep.set("serve.forecast_during_refit_p50_ms", 1e3*polls.median())
	overhead.publish(c)
	var noop samples
	for i := 0; i < 200; i++ {
		var err error
		t := timeIt(func() { err = rig.get("/v1/models", nil) })
		c.rep.attempt("GET /v1/models", err)
		noop = append(noop, t)
	}
	c.rep.set("serve.noop_get_us", 1e6*noop.median())
	var snap struct {
		State map[string]float64 `json:"state"`
	}
	if err := rig.get("/debug/uoivar", &snap); err == nil {
		if b := snap.State["serve/forecast_batches"]; b > 0 {
			c.rep.set("serve.coalescing", snap.State["serve/forecast_requests_batched"]/b)
		}
		c.rep.set("serve.rejected", snap.State["serve/rejected"])
	}
	c.rep.set("uoi.cells_reused_frac", float64(rig.cellsReused()-cellsReused0)/float64(cycles*(sz.B1+sz.B2)))

	// The refit's work against a cold fit of the same window, through the
	// public API: a previous model's coefficients seed an anchored fit.
	m0 := rig.models[0]
	lo := m0.sent - sz.Window
	window := m0.series.SubRows(lo, m0.sent)
	prev, err := uoivar.FitVAR(m0.series.SubRows(lo-sz.Slide, m0.sent-sz.Slide), rig.cfg())
	c.rep.attempt("previous-window fit", err)
	cold, err2 := uoivar.FitVAR(window, rig.cfg())
	c.rep.attempt("cold fit", err2)
	if err != nil || err2 != nil {
		return nil
	}
	warmCfg := rig.cfg()
	warmCfg.WarmBeta, warmCfg.Anchored, warmCfg.Anchor = prev.Beta, true, int64(lo)
	var warm *uoivar.VARResult
	warmS := timeIt(func() { warm, err = uoivar.FitVAR(window, warmCfg) })
	c.rep.attempt("warm fit", err)
	if err != nil {
		return nil
	}
	d := varDiag(warm)
	c.rep.set("uoi.first_fit_s", warmS)
	c.rep.set("uoi.selection_s", d.selection)
	c.rep.set("uoi.estimation_s", d.estimation)
	c.rep.set("uoi.other_s", warmS-d.selection-d.estimation)
	c.rep.set("uoi.warm_iters_ratio", float64(warm.Diag.ADMMIters)/float64(cold.Diag.ADMMIters))
	c.rep.set("admm.solves_per_fit", float64(d.solves))
	c.rep.set("admm.iters_per_fit", float64(d.iters))
	replayVARCells(c, varReplay{series: window, b1: sz.B1, kw: runtime.GOMAXPROCS(0), warm: prev.Beta, anchor: int64(lo)}, d)
	art := uoivar.VARArtifact(warm, warmCfg)
	hist := window.SubRows(window.Rows-1, window.Rows)
	c.setModelLayer(art, filepath.Join(c.tmpDir, "layer.uoim"), func(p *uoivar.Predictor) ([]float64, error) {
		return forecastData(p, hist, sz.Horizon)
	})
	// http overhead = what a forecast costs beyond its batch window and the
	// forecast itself.
	c.rep.set("serve.http_overhead_us", 1e6*forecasts.median()-1e3*sz.BatchWindowMs-c.rep.metrics["model.forecast_us"])
	return nil
}

// matchesArtifact checks a served forecast against the in-process forecast
// of the artifact at path for the same request.
func matchesArtifact(path string, req forecastRequest, got forecastResponse) error {
	art, err := uoivar.LoadModel(path)
	if err != nil {
		return err
	}
	p, err := uoivar.NewPredictor(art)
	if err != nil {
		return err
	}
	hist := uoivar.NewDense(len(req.History), len(req.History[0]))
	for i, row := range req.History {
		copy(hist.Row(i), row)
	}
	want, err := p.Forecast(hist, req.Horizon)
	if err != nil {
		return err
	}
	if len(got.Forecast) != want.Rows {
		return fmt.Errorf("forecast has %d rows, want %d", len(got.Forecast), want.Rows)
	}
	for i, row := range got.Forecast {
		if maxAbsDiff(row, want.Row(i)) != 0 {
			return fmt.Errorf("served forecast row %d differs from the in-process predictor", i)
		}
	}
	return nil
}
