package fault

import (
	"errors"
	"testing"
	"time"
)

func TestCommOpSchedule(t *testing.T) {
	p := NewPlan(3,
		Event{Kind: Crash, Rank: 1, Op: 2},
		Event{Kind: Straggle, Rank: 0, Op: 1, Delay: time.Millisecond},
		Event{Kind: Delay, Rank: 2, Op: 0, Delay: 2 * time.Millisecond},
	)
	// Rank 0: straggles from op 1 onward.
	if d, c := p.CommOp(0); d != 0 || c != nil {
		t.Fatalf("rank 0 op 0: %v %v", d, c)
	}
	for op := 1; op < 4; op++ {
		if d, c := p.CommOp(0); d != time.Millisecond || c != nil {
			t.Fatalf("rank 0 op %d: %v %v, want straggle", op, d, c)
		}
	}
	// Rank 1: dies at op 2.
	for op := 0; op < 2; op++ {
		if _, c := p.CommOp(1); c != nil {
			t.Fatalf("rank 1 op %d crashed early: %v", op, c)
		}
	}
	if _, c := p.CommOp(1); !errors.Is(c, ErrInjected) {
		t.Fatalf("rank 1 op 2: %v, want injected crash", c)
	}
	// Rank 2: one-shot delay at op 0 only.
	if d, _ := p.CommOp(2); d != 2*time.Millisecond {
		t.Fatalf("rank 2 op 0 delay %v", d)
	}
	if d, _ := p.CommOp(2); d != 0 {
		t.Fatalf("rank 2 op 1 delay %v, want 0", d)
	}
	// Out-of-range ranks are ignored.
	if d, c := p.CommOp(7); d != 0 || c != nil {
		t.Fatal("out-of-range rank must be a no-op")
	}
}

func TestResetReplaysSchedule(t *testing.T) {
	newPlan := func() *Plan { return NewPlan(1, Event{Kind: Crash, Rank: 0, Op: 1}) }
	p := newPlan()
	seq := func() []bool {
		var out []bool
		for op := 0; op < 3; op++ {
			_, c := p.CommOp(0)
			out = append(out, c != nil)
		}
		return out
	}
	a := seq()
	p = newPlan()
	b := seq()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d: first run %v, replay %v", i, a[i], b[i])
		}
	}
	if !a[1] || a[0] || a[2] {
		t.Fatalf("crash sequence %v, want crash exactly at op 1", a)
	}
}

func TestIOFaultStateless(t *testing.T) {
	p := NewPlan(1, Event{Kind: IORead, Chunk: 2, Count: 2})
	for i := 0; i < 3; i++ { // repeated queries give identical answers
		if err := p.IOFault(2, 0); !errors.Is(err, ErrInjected) {
			t.Fatal("attempt 0 of chunk 2 must fail")
		}
		if err := p.IOFault(2, 2); err != nil {
			t.Fatalf("attempt 2 must succeed: %v", err)
		}
		if err := p.IOFault(1, 0); err != nil {
			t.Fatalf("other chunk must succeed: %v", err)
		}
	}
	wild := NewPlan(1, Event{Kind: IORead, Chunk: -1, Count: 1})
	if err := wild.IOFault(-1, 0); !errors.Is(err, ErrInjected) {
		t.Fatal("wildcard must match header reads (chunk -1)")
	}
	if err := wild.IOFault(5, 0); !errors.Is(err, ErrInjected) {
		t.Fatal("wildcard must match any chunk")
	}
}

func TestBootstrapFault(t *testing.T) {
	p := NewPlan(1, Event{Kind: Bootstrap, Phase: "selection", K: 3})
	if err := p.BootstrapFault("selection", 3); !errors.Is(err, ErrInjected) {
		t.Fatal("scheduled bootstrap must fail")
	}
	if err := p.BootstrapFault("selection", 2); err != nil {
		t.Fatal("unscheduled index must pass")
	}
	if err := p.BootstrapFault("estimation", 3); err != nil {
		t.Fatal("other phase must pass")
	}
}

func TestHTTPOpSchedule(t *testing.T) {
	p := NewPlan(3,
		Event{Kind: ReplicaKill, Rank: 1, Op: 2},
		Event{Kind: ConnRefused, Rank: 0, Op: 1, Count: 2},
	)
	// Replica 0: requests 1 and 2 are refused, 0 and 3 pass.
	if kill, refuse := p.HTTPOp(0); kill || refuse != nil {
		t.Fatalf("replica 0 op 0: %v %v", kill, refuse)
	}
	for op := 1; op < 3; op++ {
		if kill, refuse := p.HTTPOp(0); kill || !errors.Is(refuse, ErrInjected) {
			t.Fatalf("replica 0 op %d: %v %v, want refused", op, kill, refuse)
		}
	}
	if kill, refuse := p.HTTPOp(0); kill || refuse != nil {
		t.Fatalf("replica 0 op 3: %v %v, want clean", kill, refuse)
	}
	// Replica 1: killed at its 2nd routed request.
	for op := 0; op < 2; op++ {
		if kill, _ := p.HTTPOp(1); kill {
			t.Fatalf("replica 1 op %d killed early", op)
		}
	}
	if kill, _ := p.HTTPOp(1); !kill {
		t.Fatal("replica 1 op 2 must kill")
	}
	// Untouched replica and out-of-range indices are no-ops.
	if kill, refuse := p.HTTPOp(2); kill || refuse != nil {
		t.Fatal("replica 2 must be untouched")
	}
	if kill, refuse := p.HTTPOp(9); kill || refuse != nil {
		t.Fatal("out-of-range replica must be a no-op")
	}
}

func TestHTTPOpResetReplays(t *testing.T) {
	newPlan := func() *Plan { return NewPlan(1, Event{Kind: ReplicaKill, Rank: 0, Op: 1}) }
	p := newPlan()
	seq := func() []bool {
		var out []bool
		for op := 0; op < 3; op++ {
			kill, _ := p.HTTPOp(0)
			out = append(out, kill)
		}
		return out
	}
	a := seq()
	p = newPlan()
	b := seq()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d: first run %v, replay %v", i, a[i], b[i])
		}
	}
	if !a[1] || a[0] || a[2] {
		t.Fatalf("kill sequence %v, want kill exactly at op 1", a)
	}
}

func TestHTTPOpIndependentOfCommOps(t *testing.T) {
	// HTTP request counters and communication-op counters must not share
	// state: a comm op on rank 0 must not advance replica 0's request index.
	p := NewPlan(1, Event{Kind: ReplicaKill, Rank: 0, Op: 0})
	p.CommOp(0)
	p.CommOp(0)
	if kill, _ := p.HTTPOp(0); !kill {
		t.Fatal("first HTTP op must still be index 0 after comm ops")
	}
}

func TestGenerateHTTPKinds(t *testing.T) {
	opts := GenOptions{PReplicaKill: 1, PConnRefused: 1}
	a := Generate(5, 3, opts)
	b := Generate(5, 3, opts)
	if a.String() != b.String() {
		t.Fatalf("same seed diverged:\n  %s\n  %s", a, b)
	}
	var kills, refusals int
	for _, e := range a.events {
		switch e.Kind {
		case ReplicaKill:
			kills++
			if e.Rank < 0 || e.Rank >= 3 {
				t.Fatalf("kill rank %d out of range", e.Rank)
			}
		case ConnRefused:
			refusals++
			if e.Count < 1 {
				t.Fatalf("refusal count %d", e.Count)
			}
		}
	}
	if kills != 1 || refusals != 1 {
		t.Fatalf("generated %d kills, %d refusals, want 1 each", kills, refusals)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	opts := GenOptions{PCrash: 0.8, PStraggle: 0.8, PDelay: 0.8, PIO: 0.8, PBootstrap: 0.8}
	a := Generate(17, 4, opts)
	b := Generate(17, 4, opts)
	if a.String() != b.String() {
		t.Fatalf("same seed diverged:\n  %s\n  %s", a, b)
	}
	distinct := map[string]bool{}
	for seed := uint64(0); seed < 8; seed++ {
		distinct[Generate(seed, 4, opts).String()] = true
	}
	if len(distinct) < 2 {
		t.Fatal("different seeds must vary the schedule")
	}
}

func TestGenerateZeroProbabilitiesIsEmpty(t *testing.T) {
	p := Generate(1, 4, GenOptions{})
	if len(p.events) != 0 {
		t.Fatalf("zero probabilities produced %v", p)
	}
	if _, c := p.CommOp(0); c != nil {
		t.Fatal("empty plan must inject nothing")
	}
}

func TestKindAndEventStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		Crash: "crash", Straggle: "straggle", Delay: "delay",
		IORead: "io-read", Bootstrap: "bootstrap",
		ReplicaKill: "replica-kill", ConnRefused: "conn-refused", Kind(99): "unknown",
	} {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	e := Event{Kind: Crash, Rank: 2, Op: 7}
	if e.String() != "crash{rank 2, op 7}" {
		t.Fatalf("event string %q", e.String())
	}
}
