// Package stream keeps served UoI-VAR models fresh under continuous data:
// an append-only observation buffer with sliding-window (and optional
// forgetting-factor) semantics, a refit engine that re-runs UoI-VAR on the
// window, warm-started from the previous model and with its selection
// bootstraps anchored at absolute stream rows, and atomic publication of
// each refreshed model into the serving registry's hot-swap path.
//
// The core guarantee is *bit-identity*: a streaming refit on window W is a
// pure function of (W, cfg), where cfg is the engine's base config plus the
// warm seed (VARConfig.WarmBeta) and the anchor (Anchored, Anchor) it sets.
// The engine keeps the last refit's (W, cfg), and a plain uoi.VAR of W at
// that cfg produces exactly the published artifact.
package stream

import (
	"fmt"
	"math"
	"sync"

	"uoivar/internal/mat"
)

// Buffer is a bounded sliding window of observation rows. Appends past the
// window cap evict the oldest rows; Snapshot copies the current window into
// a dense series for fitting. Safe for concurrent use.
type Buffer struct {
	mu     sync.Mutex
	p      int
	window int
	rows   [][]float64
	total  int64
}

// NewBuffer returns an empty buffer for width-p rows retaining at most
// window rows (window must be positive).
func NewBuffer(p, window int) *Buffer {
	return &Buffer{p: p, window: window}
}

// Append validates and appends observation rows (newest last), evicting the
// oldest rows beyond the window cap. Rows are copied; the caller may reuse
// its slices.
func (b *Buffer) Append(rows [][]float64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, r := range rows {
		if len(r) != b.p {
			return fmt.Errorf("stream: row %d has %d values, want %d", i, len(r), b.p)
		}
		for _, v := range r {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("stream: row %d contains a non-finite value", i)
			}
		}
	}
	for _, r := range rows {
		cp := make([]float64, b.p)
		copy(cp, r)
		b.rows = append(b.rows, cp)
	}
	b.total += int64(len(rows))
	if over := len(b.rows) - b.window; over > 0 {
		// Reallocate rather than reslice so evicted rows are freed and the
		// backing array cannot grow without bound.
		kept := make([][]float64, b.window)
		copy(kept, b.rows[over:])
		b.rows = kept
	}
	return nil
}

// Snapshot copies the current window into a Len()×p series, oldest row
// first — the exact input a cold fit on this window would see.
func (b *Buffer) Snapshot() *mat.Dense {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := mat.NewDense(len(b.rows), b.p)
	for i, r := range b.rows {
		copy(out.Row(i), r)
	}
	return out
}

// Len reports the number of rows currently in the window.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.rows)
}

// Total reports the number of rows ever appended.
func (b *Buffer) Total() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total
}

// EffectiveWindow maps a forgetting factor γ ∈ (0,1) to the sliding-window
// length that approximates it: the oldest retained row is the last one
// whose weight γ^age is still above floor, i.e. W = ⌈ln(floor)/ln(γ)⌉.
// Exponential forgetting with a weight floor and a rectangular window of
// this length select the same observation set; the fit inside the window is
// unweighted (see DESIGN.md §13). Non-positive floor selects 0.01.
func EffectiveWindow(forget, floor float64) int {
	if forget <= 0 || forget >= 1 {
		return 0
	}
	if floor <= 0 || floor >= 1 {
		floor = 0.01
	}
	return int(math.Ceil(math.Log(floor) / math.Log(forget)))
}
