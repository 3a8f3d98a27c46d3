package uoi

import (
	"sync"
	"sync/atomic"
)

// forEachBootstrap runs fn(k) for k in [0, n) across at most `workers`
// goroutines (1 = sequential). Bootstraps are embarrassingly parallel — the
// paper's P_B parallelism — and every k derives its own RNG stream, so the
// result is identical at any worker count. No bootstrap starts once one has
// failed, and the failure of the lowest k wins.
func forEachBootstrap(workers, n int, fn func(k int) error) error {
	if errs := compactErrs(runBootstraps(workers, n, true, fn)); len(errs) > 0 {
		return errs[0]
	}
	return nil
}

// forEachBootstrapCollect runs fn(k) for every k in [0, n) across at most
// `workers` goroutines and returns the per-bootstrap errors (nil entries
// for successes). Unlike forEachBootstrap it never stops early: degraded
// quorum mode needs to know exactly which bootstraps completed, so every k
// is attempted even after failures.
func forEachBootstrapCollect(workers, n int, fn func(k int) error) []error {
	return runBootstraps(workers, n, false, fn)
}

// runBootstraps is the worker pool of both: workers claim bootstraps in
// ascending order, the calling goroutine among them, and with stop set none
// claims another once one has failed.
func runBootstraps(workers, n int, stop bool, fn func(k int) error) []error {
	errs := make([]error, n)
	var (
		wg     sync.WaitGroup
		next   atomic.Int64
		failed atomic.Bool
	)
	work := func() {
		defer wg.Done()
		for k := int(next.Add(1)) - 1; k < n && !(stop && failed.Load()); k = int(next.Add(1)) - 1 {
			if errs[k] = fn(k); errs[k] != nil {
				failed.Store(true)
			}
		}
	}
	workers = max(min(workers, n), 1)
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go work()
	}
	work()
	wg.Wait()
	return errs
}

// compactErrs drops the nil entries of a per-bootstrap error slice.
func compactErrs(errs []error) []error {
	var out []error
	for _, e := range errs {
		if e != nil {
			out = append(out, e)
		}
	}
	return out
}
