package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"uoivar/internal/mat"
	"uoivar/internal/model"
	"uoivar/internal/trace"
)

// errBatcherClosed reports a submit against a draining server.
var errBatcherClosed = errors.New("serve: shutting down")

// forecastReq is one queued forecast awaiting a batch slot. The response
// channel is buffered (capacity 1) so the batcher never blocks on a handler
// that already gave up on its deadline.
type forecastReq struct {
	ctx     context.Context
	history *mat.Dense
	horizon int
	enq     time.Time // when submit queued it; batch_wait runs from here
	resp    chan forecastResp
}

type forecastResp struct {
	entry    *Entry
	forecast *mat.Dense
	// wait is the request's batch wait: from enqueue to the dispatch of
	// its batch (0 when it never reached a batch).
	wait time.Duration
	err  error
}

// batcher coalesces forecast requests against one model name. A single
// goroutine drains the bounded queue and is work-conserving: it blocks for
// the first request, takes whatever else is already queued (up to
// maxBatch), and dispatches at once — a lone forecast never waits. Only
// while a streaming refit is in flight (streams.Refitting) does it hold the
// batch open for the window, so a closed-loop poller waits on a timer
// instead of taking a core from the refit. Each batch runs as one
// Predictor.ForecastBatch call at the batch's common max horizon, and each
// member is answered with its own prefix. Correctness does not depend on
// batch composition — the batched kernel's rows are bit-identical to solo
// evaluation — so the window trades only latency against CPU.
type batcher struct {
	name     string
	registry *Registry
	streams  Streamer // nil: never contended
	window   time.Duration
	maxBatch int
	tracer   *trace.Tracer
	metrics  *serveMetrics

	// ch is the bounded queue (backpressure, not drops). It is never
	// closed; shutdown is signalled on stop, and the loop drains any
	// stragglers before exiting so accepted requests are always answered.
	ch       chan *forecastReq
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

func newBatcher(name string, reg *Registry, streams Streamer, window time.Duration, maxBatch, queueDepth int, tr *trace.Tracer, m *serveMetrics) *batcher {
	if maxBatch <= 0 {
		maxBatch = 64
	}
	if queueDepth < maxBatch {
		queueDepth = maxBatch
	}
	b := &batcher{
		name: name, registry: reg, streams: streams, window: window, maxBatch: maxBatch,
		tracer: tr, metrics: m, ch: make(chan *forecastReq, queueDepth),
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	go b.loop()
	return b
}

// submit enqueues a request and waits for its response, the context
// deadline, or shutdown — whichever comes first.
func (b *batcher) submit(ctx context.Context, history *mat.Dense, horizon int) forecastResp {
	req := &forecastReq{ctx: ctx, history: history, horizon: horizon, enq: time.Now(), resp: make(chan forecastResp, 1)}
	select {
	case b.ch <- req:
	case <-ctx.Done():
		return forecastResp{err: ctx.Err()}
	case <-b.stop:
		return forecastResp{err: errBatcherClosed}
	}
	select {
	case r := <-req.resp:
		return r
	case <-ctx.Done():
		// The batcher will still compute and drop the answer into the
		// buffered channel; nobody reads it.
		return forecastResp{err: ctx.Err()}
	}
}

// close stops the batcher. Requests already accepted into the queue are
// still answered (the drain half of graceful shutdown); new submits are
// refused with errBatcherClosed.
func (b *batcher) close() {
	b.stopOnce.Do(func() { close(b.stop) })
	<-b.done
}

// loop is the batcher goroutine. The idle path is a blocking channel
// receive: no timer, ticker or poll runs unless a refit is in flight.
func (b *batcher) loop() {
	defer close(b.done)
	batch := make([]*forecastReq, 0, b.maxBatch)
	for {
		select {
		case req := <-b.ch:
			batch = append(batch[:0], req)
		case <-b.stop:
			b.drainQueue(batch)
			return
		}
		batch = b.takeQueued(batch)
		if len(batch) < b.maxBatch && b.contended() {
			batch = b.collect(batch)
		}
		b.run(batch)
		clear(batch) // let the answered requests be garbage-collected
	}
}

// contended reports whether a batch should wait out the window: a refit is
// running and the window is positive.
func (b *batcher) contended() bool {
	return b.window > 0 && b.streams != nil && b.streams.Refitting()
}

// takeQueued appends every already-queued request, up to maxBatch, without
// blocking.
func (b *batcher) takeQueued(batch []*forecastReq) []*forecastReq {
	for len(batch) < b.maxBatch {
		select {
		case r := <-b.ch:
			batch = append(batch, r)
		default:
			return batch
		}
	}
	return batch
}

// collect holds the batch open for the window, until maxBatch fills, or
// until shutdown — which runs what is there at once; drainQueue picks up
// anything later.
func (b *batcher) collect(batch []*forecastReq) []*forecastReq {
	timer := time.NewTimer(b.window)
	defer timer.Stop()
	for len(batch) < b.maxBatch {
		select {
		case r := <-b.ch:
			batch = append(batch, r)
		case <-timer.C:
			return batch
		case <-b.stop:
			return batch
		}
	}
	return batch
}

// drainQueue answers everything that made it into the queue before stop.
func (b *batcher) drainQueue(batch []*forecastReq) {
	for {
		batch = b.takeQueued(batch[:0])
		if len(batch) == 0 {
			return
		}
		b.run(batch)
	}
}

// run answers one coalesced batch. The registry entry is snapshotted once,
// so every member sees the same model version even across a concurrent
// hot-swap; requests whose context already expired or whose history does not
// fit the snapshot are answered individually without poisoning the batch.
func (b *batcher) run(batch []*forecastReq) {
	dispatch := time.Now()
	sp := b.tracer.Start("serve/batch")
	defer sp.End()
	b.tracer.Add("serve/forecast_batches", 1)
	b.tracer.Add("serve/forecast_requests_batched", int64(len(batch)))
	b.tracer.SetMax("serve/max_batch", int64(len(batch)))
	b.metrics.observeBatch(b.name, len(batch))

	entry := b.registry.Get(b.name)
	live := batch[:0]
	for _, r := range batch {
		wait := dispatch.Sub(r.enq)
		b.metrics.observeStage(stageBatchWait, wait)
		if r.ctx.Err() != nil {
			r.resp <- forecastResp{wait: wait, err: r.ctx.Err()}
			continue
		}
		if entry == nil {
			r.resp <- forecastResp{wait: wait, err: fmt.Errorf("serve: model %q not found", b.name)}
			continue
		}
		if err := checkHistory(entry.Pred, r.history); err != nil {
			r.resp <- forecastResp{entry: entry, wait: wait, err: err}
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	maxH := 0
	histories := make([]*mat.Dense, len(live))
	for i, r := range live {
		histories[i] = r.history
		if r.horizon > maxH {
			maxH = r.horizon
		}
	}
	t0 := time.Now()
	out, err := entry.Pred.ForecastBatch(histories, maxH)
	b.metrics.observeStage(stageForecast, time.Since(t0))
	for i, r := range live {
		resp := forecastResp{entry: entry, wait: dispatch.Sub(r.enq), err: err}
		if err == nil {
			// A forecast at horizon h is the h-row prefix of the
			// horizon-maxH forecast (row t depends only on rows before
			// it), so a row view of that prefix keeps the bit-identity
			// guarantee without copying.
			f := out[i]
			resp.forecast = mat.NewDenseData(r.horizon, f.Cols, f.Data[:r.horizon*f.Cols])
		}
		r.resp <- resp
	}
}

// checkHistory validates a history against a predictor before batching, so
// one malformed request cannot fail its batch-mates. Lasso models pass here
// (Order 0) and fail in ForecastBatch with ErrKind for the whole batch —
// acceptable because a lasso batcher only ever sees lasso requests.
func checkHistory(p *model.Predictor, h *mat.Dense) error {
	if h == nil || h.Cols != p.P() {
		cols := 0
		if h != nil {
			cols = h.Cols
		}
		return fmt.Errorf("serve: history has %d columns, model has %d", cols, p.P())
	}
	if h.Rows < p.Order() {
		return fmt.Errorf("serve: history has %d rows, order-%d model needs at least %d", h.Rows, p.Order(), p.Order())
	}
	return nil
}
