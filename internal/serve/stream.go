package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
)

// ErrUnknownStream is returned (wrapped) by Streamer implementations when
// the named model has no stream — the server maps it to 404.
var ErrUnknownStream = errors.New("no stream for model")

// Streamer is the streaming backend behind POST /v1/ingest and
// GET /v1/stream/status (implemented by stream.Manager). The server owns
// only the wire protocol; buffering, refit scheduling, and hot-swap
// publication live behind this interface.
type Streamer interface {
	// Ingest appends observation rows to the named model's window and
	// returns the stream's post-append state. Errors wrapping
	// ErrUnknownStream map to 404, everything else to 400.
	Ingest(model string, rows [][]float64) (StreamStatus, error)
	// Status reports one stream's state (false when the model is unknown).
	Status(model string) (StreamStatus, bool)
	// StatusAll reports every streamable model's state, sorted by name.
	StatusAll() []StreamStatus
	// Refitting reports whether a background refit is in flight on any
	// stream. The forecast batchers ask it once per batch: only while a
	// refit shares the CPU do they hold a batch open for BatchWindow.
	Refitting() bool
}

// IngestRequest is the /v1/ingest body.
type IngestRequest struct {
	// Model names the registered model whose window receives the rows.
	Model string `json:"model"`
	// Rows are observation rows (newest last), each of the model's width p.
	Rows [][]float64 `json:"rows"`
}

// StreamStatus is one model's streaming state on the wire: the /v1/ingest
// reply and the rows of /v1/stream/status.
type StreamStatus struct {
	Model string `json:"model"` // registry name
	P     int    `json:"p"`     // observation width
	// Rows is the observation count currently buffered (≤ Window).
	Rows int `json:"rows"`
	// TotalRows counts every row ever ingested.
	TotalRows int64 `json:"total_rows"`
	// Window is the effective sliding-window cap (after any forgetting-
	// factor truncation).
	Window int `json:"window"`
	// RefitEvery is the refit cadence in ingested rows (0 = manual only).
	RefitEvery int `json:"refit_every"`
	// Refits counts completed, published refits.
	Refits int64 `json:"refits"`
	// RefitPending reports whether a refit is running or queued.
	RefitPending bool `json:"refit_pending"`
	// Version is the registry version currently serving this model; it
	// bumps atomically when a refit publishes.
	Version int `json:"version"`
	// LastRefitMs is the wall time of the last completed refit.
	LastRefitMs float64 `json:"last_refit_ms,omitempty"`
	// NextRefitInMs estimates when the next automatic refit will trigger,
	// from the rows remaining until the cadence boundary divided by the
	// observed ingest rate (EWMA). 0 when no estimate is available (no
	// cadence, or no ingest observed yet).
	NextRefitInMs float64 `json:"next_refit_in_ms,omitempty"`
	// RefitRunningMs is how long the currently-running refit has been
	// executing (0 when no refit is in flight). Together with LastRefitMs it
	// distinguishes a slow refit (running for about LastRefitMs) from a
	// stuck one (running for many multiples of it).
	RefitRunningMs float64 `json:"refit_running_ms,omitempty"`
	// LastRefitIters is the ADMM iteration total of the last refit — the
	// number warm starts drive down.
	LastRefitIters int `json:"last_refit_iters,omitempty"`
	// LastError is the last refit failure ("" when healthy). The previous
	// model keeps serving while this is set.
	LastError string `json:"last_error,omitempty"`
}

// StreamStatusResponse is the /v1/stream/status reply.
type StreamStatusResponse struct {
	// Streams has one row per streamable model.
	Streams []StreamStatus `json:"streams"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s.limited("/v1/ingest", http.MethodPost, func(_ context.Context, w http.ResponseWriter, r *http.Request) {
		if s.cfg.Streams == nil {
			s.writeError(w, http.StatusNotFound, "streaming disabled (start with -stream)")
			return
		}
		body, err := s.readBody(w, r)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "read body: %v", err)
			return
		}
		var req IngestRequest
		if err := json.Unmarshal(body, &req); err != nil {
			s.writeError(w, http.StatusBadRequest, "parse request: %v", err)
			return
		}
		st, err := s.cfg.Streams.Ingest(req.Model, req.Rows)
		if err != nil {
			if errors.Is(err, ErrUnknownStream) {
				s.writeError(w, http.StatusNotFound, "%v", err)
				return
			}
			s.writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		s.tracer.Add("serve/ingest_rows", int64(len(req.Rows)))
		s.writeJSON(w, http.StatusOK, st)
	})(w, r)
}

func (s *Server) handleStreamStatus(w http.ResponseWriter, r *http.Request) {
	s.limited("/v1/stream/status", http.MethodGet, func(_ context.Context, w http.ResponseWriter, r *http.Request) {
		if s.cfg.Streams == nil {
			s.writeError(w, http.StatusNotFound, "streaming disabled (start with -stream)")
			return
		}
		if name := r.URL.Query().Get("model"); name != "" {
			st, ok := s.cfg.Streams.Status(name)
			if !ok {
				s.writeError(w, http.StatusNotFound, "no stream for model %q", name)
				return
			}
			s.writeJSON(w, http.StatusOK, StreamStatusResponse{Streams: []StreamStatus{st}})
			return
		}
		s.writeJSON(w, http.StatusOK, StreamStatusResponse{Streams: s.cfg.Streams.StatusAll()})
	})(w, r)
}
