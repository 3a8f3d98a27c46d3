package mat

import (
	"runtime"
	"sync"
	"sync/atomic"

	"uoivar/internal/trace"
)

// DefaultWorkers is the kernel parallelism used when a caller passes a
// non-positive worker budget: all of GOMAXPROCS, the right choice for a
// standalone (single-rank, single-bootstrap) solve that owns the machine.
//
// There is deliberately no package-level mutable worker count any more: a
// global setting composed badly with the pipeline's own parallelism — every
// rank goroutine and every bootstrap worker would spawn a full GOMAXPROCS
// worker set inside its GEMM/AtA calls (ranks × cores oversubscription).
// Callers embedded in wider parallelism pass an explicit per-call budget
// through the *Workers kernel variants instead (the paper runs 4 OpenMP
// threads per MPI rank the same way).
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// clampWorkers resolves a caller budget: non-positive selects the default.
func clampWorkers(w int) int {
	if w <= 0 {
		return DefaultWorkers()
	}
	return w
}

// activeKernelWorkers / peakKernelWorkers gauge how many kernel execution
// streams (goroutines spawned by parallelFor, or the caller itself on the
// serial path) run concurrently across the whole process. The peak is the
// observable that the worker-budget regression tests pin: with per-rank
// budget w over R ranks it must never exceed R·w.
var (
	activeKernelWorkers atomic.Int64
	peakKernelWorkers   atomic.Int64
)

// noteWorkers registers n concurrent kernel streams and returns the
// matching release function.
func noteWorkers(n int64) func() {
	cur := activeKernelWorkers.Add(n)
	for {
		p := peakKernelWorkers.Load()
		if cur <= p || peakKernelWorkers.CompareAndSwap(p, cur) {
			break
		}
	}
	return func() { activeKernelWorkers.Add(-n) }
}

// ResetPeakWorkers clears the high-water mark (test hook).
func ResetPeakWorkers() { peakKernelWorkers.Store(0) }

// PeakWorkers returns the highest number of concurrently executing kernel
// streams observed since the last reset.
func PeakWorkers() int64 { return peakKernelWorkers.Load() }

// kernelTracer is the process-wide tracer for kernel spans, set once at
// startup by commands that emit perf reports. The disabled path costs one
// atomic load per kernel call.
var kernelTracer atomic.Pointer[trace.Tracer]

// SetTracer installs (or, with nil, removes) the process-wide kernel
// tracer. Kernel calls record spans "mat/gemm", "mat/gemm_abt",
// "mat/gemm_atb", "mat/gemv", "mat/gemv_t", "mat/ata", "mat/chol" and the
// gauge "mat/workers" (largest budget used). "mat/ata" is a Stats sweep,
// XᵀY included, so the UoI cells emit no "mat/gemv_t"; that span is the
// all-rows GramVec of the λ_max product and the standalone solvers.
func SetTracer(t *trace.Tracer) {
	if t == nil {
		kernelTracer.Store(nil)
		return
	}
	kernelTracer.Store(t)
}

// tracer returns the installed kernel tracer (nil when tracing is off; all
// trace methods are nil-safe, so call sites never branch).
func tracer() *trace.Tracer { return kernelTracer.Load() }

// parallelFor runs f over [0,n) split into roughly equal contiguous chunks
// across at most `workers` goroutines (the caller's explicit budget).
func parallelFor(n, workers int, f func(lo, hi int)) {
	w := workers
	if w < 1 {
		w = 1
	}
	if w > n {
		w = n
	}
	if w <= 1 || n < 2 {
		release := noteWorkers(1)
		f(0, n)
		release()
		return
	}
	release := noteWorkers(int64(w))
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	release()
}

// forEachWorker runs f(0), …, f(n−1), one goroutine each (inline when n is
// 1): the kernels that deal bands cyclically hand worker w the bands w,
// w+n, w+2n, ….
func forEachWorker(n int, f func(w int)) {
	parallelFor(n, n, func(lo, hi int) {
		for w := lo; w < hi; w++ {
			f(w)
		}
	})
}

// ParallelFor is parallelFor for callers one layer up whose work items are
// whole kernel calls (the batched ADMM solve fans column groups out with it):
// the chunks run on at most `workers` goroutines (≤0 selects DefaultWorkers)
// and count against the PeakWorkers gauge like any kernel stream.
func ParallelFor(n, workers int, f func(lo, hi int)) {
	parallelFor(n, clampWorkers(workers), f)
}

// parallelForRange splits [lo, hi) across at most `workers` goroutines.
func parallelForRange(lo, hi, workers int, f func(lo, hi int)) {
	n := hi - lo
	w := workers
	if w < 1 {
		w = 1
	}
	if w > n {
		w = n
	}
	if w <= 1 || n < 2 {
		release := noteWorkers(1)
		f(lo, hi)
		release()
		return
	}
	release := noteWorkers(int64(w))
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	for s := lo; s < hi; s += chunk {
		e := s + chunk
		if e > hi {
			e = hi
		}
		wg.Add(1)
		go func(s, e int) {
			defer wg.Done()
			f(s, e)
		}(s, e)
	}
	wg.Wait()
	release()
}
