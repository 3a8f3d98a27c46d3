package fleet

import (
	"context"
	"testing"
	"time"

	"uoivar/internal/resample"
)

// testCtx returns a context bounded well inside the test deadline.
func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// newTestRNG returns a fixed-seed stream for jitter-shape tests.
func newTestRNG() *resample.RNG {
	return resample.NewRNG(1)
}

// Alive reports whether the replica's server is currently up.
func (r *Replica) Alive() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.alive
}
