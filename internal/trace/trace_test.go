package trace

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"uoivar/internal/telemetry"
)

// TestDisabledTracerAllocatesNothing pins the tentpole's overhead budget:
// the disabled (nil) path must not allocate — spans are small values and
// every method short-circuits on the nil check.
func TestDisabledTracerAllocatesNothing(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Start("selection")
		child := sp.Child("bootstrap")
		child.End()
		sp.End()
		tr.Add("admm/iters", 3)
		tr.SetMax("mat/kernel_workers", 4)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestEnabledTracerSeenNamesAllocateNothing: once a name has its series in
// the tracer's registry, an enabled Add, SetMax and Start/End on that name
// allocate nothing — the serving tier records them on every request.
func TestEnabledTracerSeenNamesAllocateNothing(t *testing.T) {
	tr := New()
	record := func() {
		sp := tr.Start("selection")
		sp.End()
		tr.Add("admm/iters", 3)
		tr.SetMax("mat/kernel_workers", 4)
	}
	record()
	if allocs := testing.AllocsPerRun(1000, record); allocs != 0 {
		t.Fatalf("enabled tracer allocated %.1f allocs/op on seen names, want 0", allocs)
	}
	if got := tr.Counter("admm/iters"); got != 3*1002 {
		t.Fatalf("admm/iters = %d, want %d", got, 3*1002)
	}
}

// TestAggregatesLiveInRegistry: the tracer's aggregates are the families of
// its registry — a counter, a max-gauge and a phase histogram whose count
// and sum are what Phases reports.
func TestAggregatesLiveInRegistry(t *testing.T) {
	tr := New()
	tr.Start("selection").End()
	tr.Start("selection").End()
	tr.Add("admm/solves", 5)
	tr.SetMax("mat/workers", 3)
	exp, err := telemetry.ParseExposition(strings.NewReader(tr.Registry().Expose()))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		family, label, value string
		want                 float64
	}{
		{"uoivar_trace_counter", "name", "admm/solves", 5},
		{"uoivar_trace_max", "name", "mat/workers", 3},
		{"uoivar_trace_phase_seconds_count", "phase", "selection", 2},
		{"uoivar_trace_phase_seconds_sum", "phase", "selection", tr.PhaseSeconds("selection")},
	} {
		if got, ok := exp.Value(c.family, map[string]string{c.label: c.value}); !ok || got != c.want {
			t.Errorf("%s{%s=%q} = %g (present %v), want %g", c.family, c.label, c.value, got, ok, c.want)
		}
	}
	if (*Tracer)(nil).Registry() != nil {
		t.Fatal("nil tracer has a registry")
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("x")
	sp.Child("y").End()
	sp.End()
	tr.Add("c", 1)
	tr.SetMax("m", 9)
	if got := tr.Counter("c"); got != 0 {
		t.Fatalf("Counter on nil tracer = %d, want 0", got)
	}
	if got := tr.Max("m"); got != 0 {
		t.Fatalf("Max on nil tracer = %d, want 0", got)
	}
	if got := tr.PhaseSeconds("x"); got != 0 {
		t.Fatalf("PhaseSeconds on nil tracer = %v, want 0", got)
	}
	if tr.Phases() != nil || tr.Counters() != nil {
		t.Fatal("nil tracer returned non-nil aggregates")
	}
}

func TestSpanAggregation(t *testing.T) {
	tr := New()
	for i := 0; i < 3; i++ {
		sp := tr.Start("selection")
		time.Sleep(time.Millisecond)
		sp.End()
	}
	phases := tr.Phases()
	if len(phases) != 1 {
		t.Fatalf("got %d phases, want 1", len(phases))
	}
	if phases[0].Name != "selection" || phases[0].Count != 3 {
		t.Fatalf("phase = %+v, want selection with count 3", phases[0])
	}
	if phases[0].Seconds < 0.003 {
		t.Fatalf("selection seconds = %v, want >= 3ms", phases[0].Seconds)
	}
	if got := tr.PhaseSeconds("selection"); got != phases[0].Seconds {
		t.Fatalf("PhaseSeconds = %v, Phases = %v", got, phases[0].Seconds)
	}
}

// TestConcurrentSpans drives nested spans, counters, and gauges from many
// goroutines at once; run under -race this is the tracer's thread-safety
// regression (concurrent selection bootstraps all share one tracer).
func TestConcurrentSpans(t *testing.T) {
	tr := New()
	const workers, iters = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				sp := tr.Start("selection")
				child := sp.Child("bootstrap")
				tr.Add("admm/iters", 1)
				tr.SetMax("mat/kernel_workers", int64(w+1))
				child.End()
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	if got := tr.Counter("admm/iters"); got != workers*iters {
		t.Fatalf("admm/iters = %d, want %d", got, workers*iters)
	}
	if got := tr.Max("mat/kernel_workers"); got != workers {
		t.Fatalf("mat/kernel_workers gauge = %d, want %d", got, workers)
	}
	for _, name := range []string{"selection", "selection/bootstrap"} {
		found := false
		for _, p := range tr.Phases() {
			if p.Name == name {
				found = true
				if p.Count != workers*iters {
					t.Fatalf("%s count = %d, want %d", name, p.Count, workers*iters)
				}
			}
		}
		if !found {
			t.Fatalf("phase %q missing", name)
		}
	}
}

func TestSetMaxKeepsMaximum(t *testing.T) {
	tr := New()
	tr.SetMax("g", 4)
	tr.SetMax("g", 2)
	tr.SetMax("g", 7)
	tr.SetMax("g", 5)
	if got := tr.Max("g"); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	if got := tr.Counters()["g"]; got != 7 {
		t.Fatalf("Counters()[g] = %d, want gauge merged as 7", got)
	}
}

func TestPhasesSorted(t *testing.T) {
	tr := New()
	for _, name := range []string{"union", "selection", "estimation", "lambda_grid"} {
		tr.Start(name).End()
	}
	phases := tr.Phases()
	for i := 1; i < len(phases); i++ {
		if phases[i-1].Name >= phases[i].Name {
			t.Fatalf("phases not sorted: %q before %q", phases[i-1].Name, phases[i].Name)
		}
	}
}

// BenchmarkDisabledSpan documents the disabled fast path cost (a nil check
// and a struct copy); the <1% pipeline budget rests on this staying trivial.
func BenchmarkDisabledSpan(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("phase")
		sp.End()
	}
}

func BenchmarkEnabledSpan(b *testing.B) {
	tr := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("phase")
		sp.End()
	}
}

func BenchmarkEnabledSpanContended(b *testing.B) {
	tr := New()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			sp := tr.Start("phase")
			sp.End()
		}
	})
}

func ExampleTracer() {
	tr := New()
	sp := tr.Start("selection")
	sp.Child("bootstrap").End()
	sp.End()
	tr.Add("admm/solves", 2)
	for _, p := range tr.Phases() {
		fmt.Println(p.Name, p.Count)
	}
	fmt.Println("solves:", tr.Counter("admm/solves"))
	// Output:
	// selection 1
	// selection/bootstrap 1
	// solves: 2
}
