package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// AccessEntry is one structured access-log line. Entries are emitted as
// single-line JSON keyed by RequestID, one per request per layer, so
// joining the router's line with the replica's reconstructs the request's
// path through the fleet.
type AccessEntry struct {
	// Time is the completion timestamp (RFC3339Nano, stamped by Log).
	Time string `json:"ts"`
	// Layer names the emitting hop: "router" or "serve".
	Layer string `json:"layer"`
	// Replica is the emitting replica's identity ("" on the router and on
	// single-server mode).
	Replica string `json:"replica,omitempty"`
	// RequestID is the propagated X-Request-ID.
	RequestID string `json:"request_id"`
	// Method is the HTTP method of the request.
	Method string `json:"method"`
	// Path is the request path ("/v1/forecast", "/v1/stream/ingest", ...).
	Path string `json:"path"`
	// Status is the HTTP status written to the client.
	Status int `json:"status"`
	// Bytes is the response body size.
	Bytes int64 `json:"bytes"`
	// DurMs is the request wall time in milliseconds.
	DurMs float64 `json:"dur_ms"`
	// Tenant is the X-Tenant header ("" for anonymous).
	Tenant string `json:"tenant,omitempty"`
	// Attempt is the router-stamped forwarded-attempt number (0 when the
	// request did not pass through the router).
	Attempt int `json:"attempt,omitempty"`
	// Attempts is the total forwarded attempts a router made for this
	// request (router lines only; >1 means failover or hedging happened).
	Attempts int `json:"attempts,omitempty"`
	// Backend is the replica ID that produced the relayed response
	// (router lines only; "" when no replica answered).
	Backend string `json:"backend,omitempty"`
	// Hedge reports the hedge outcome on router lines: "" (not hedged),
	// "primary" (primary won), or "secondary" (the hedged copy won).
	Hedge string `json:"hedge,omitempty"`
	// Cache is the X-Cache header of the response ("hit"/"miss"/"").
	Cache string `json:"cache,omitempty"`
	// BatchWaitMs is a forecast's wait from enqueue to the dispatch of its
	// batch (serve lines of batched forecasts only).
	BatchWaitMs float64 `json:"batch_wait_ms,omitempty"`
	// Err carries the synthesized failure reason when no backend answered.
	Err string `json:"err,omitempty"`
}

// AccessLogger writes sampled JSON access-log lines. A nil *AccessLogger
// is the canonical disabled logger: Log on it is a no-op and allocates
// nothing. Writes are serialized internally, so one logger can be shared
// by the router and every in-process replica (which is exactly what makes
// a request followable across hops in a single log).
type AccessLogger struct {
	mu sync.Mutex
	w  io.Writer

	// every is the deterministic sampling stride: entry n is written when
	// n % every == 0. Non-2xx/3xx entries and multi-attempt entries bypass
	// sampling — failures and failovers are the lines an operator greps
	// for, so they always land.
	every uint64
	seq   atomic.Uint64
}

// NewAccessLogger writes entries to w, sampling successful requests at the
// given rate (1 logs everything, 0.01 logs every 100th; rates outside
// (0, 1] clamp to 1). Errors and failover/hedge retries are always logged.
func NewAccessLogger(w io.Writer, sample float64) *AccessLogger {
	if w == nil {
		return nil
	}
	every := uint64(1)
	if sample > 0 && sample < 1 {
		every = uint64(1/sample + 0.5)
		if every < 1 {
			every = 1
		}
	}
	return &AccessLogger{w: w, every: every}
}

// Log emits one entry (stamping its Time), subject to sampling. Nil-safe;
// the disabled path does not allocate (the entry only escapes inside log,
// past the nil check).
func (l *AccessLogger) Log(e AccessEntry) {
	if l == nil {
		return
	}
	l.log(e)
}

func (l *AccessLogger) log(e AccessEntry) {
	interesting := e.Status >= 400 || e.Attempts > 1 || e.Err != ""
	if !interesting && l.every > 1 && l.seq.Add(1)%l.every != 0 {
		return
	}
	e.Time = time.Now().UTC().Format(time.RFC3339Nano)
	line, err := json.Marshal(e)
	if err != nil {
		return
	}
	line = append(line, '\n')
	l.mu.Lock()
	l.w.Write(line) //nolint:errcheck // best-effort log sink
	l.mu.Unlock()
}
