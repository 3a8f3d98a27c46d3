package trace

import (
	"strings"
	"testing"
	"time"
)

// A nil recorder must no-op on every method — it is the disabled recorder
// the mpi hot paths hold.
func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Begin("selection")
	r.End("selection")
	r.Instant("fault/crash", "fault", 0)
	r.Comm("send", "p2p", 1, 7, 64, time.Now(), 0, 1, false)
	if r.Len() != 0 || r.Dropped() != 0 || r.Rank() != 0 || r.CurrentPhase() != "" {
		t.Fatal("nil recorder leaked state")
	}
	if r.Events() != nil {
		t.Fatal("nil recorder returned events")
	}
}

func TestRecorderOrderAndFields(t *testing.T) {
	r := NewRecorder(3, 16)
	r.Begin("selection")
	r.Comm("send", "p2p", 1, 42, 128, time.Now(), time.Millisecond, 9, false)
	r.Instant("fault/delay", "fault", 2*time.Millisecond)
	r.End("selection")
	ev := r.Events()
	if len(ev) != 4 {
		t.Fatalf("got %d events", len(ev))
	}
	kinds := []EventKind{EvBegin, EvComm, EvInstant, EvEnd}
	for i, k := range kinds {
		if ev[i].Kind != k {
			t.Fatalf("event %d kind = %v, want %v", i, ev[i].Kind, k)
		}
	}
	c := ev[1]
	if c.Peer != 1 || c.Tag != 42 || c.Bytes != 128 || c.Flow != 9 || c.FlowRecv {
		t.Fatalf("comm fields wrong: %+v", c)
	}
	if c.Wait != time.Millisecond.Nanoseconds() {
		t.Fatalf("wait = %d", c.Wait)
	}
	if r.Rank() != 3 {
		t.Fatalf("rank = %d", r.Rank())
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].TS < ev[i-1].TS {
			t.Fatalf("timestamps not monotone: %d < %d", ev[i].TS, ev[i-1].TS)
		}
	}
}

// Overflow must evict the oldest events, keep the newest, and count drops.
func TestRecorderRingEviction(t *testing.T) {
	r := NewRecorder(0, 4)
	for i := 0; i < 10; i++ {
		r.Instant("e", "x", time.Duration(i))
	}
	if r.Len() != 4 {
		t.Fatalf("len = %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", r.Dropped())
	}
	ev := r.Events()
	for i, e := range ev {
		if want := int64(6 + i); e.Dur != want {
			t.Fatalf("event %d dur = %d, want %d (oldest not evicted)", i, e.Dur, want)
		}
	}
}

func TestCurrentPhaseTracksOpenSpans(t *testing.T) {
	r := NewRecorder(0, 8)
	if r.CurrentPhase() != "" {
		t.Fatal("idle recorder has a phase")
	}
	r.Begin("selection")
	r.Begin("selection/bootstrap")
	if got := r.CurrentPhase(); got != "selection/bootstrap" {
		t.Fatalf("phase = %q", got)
	}
	r.End("selection/bootstrap")
	if got := r.CurrentPhase(); got != "selection" {
		t.Fatalf("phase = %q", got)
	}
	r.End("selection")
	if r.CurrentPhase() != "" {
		t.Fatal("phase not cleared")
	}
}

// Signature must cover everything except timestamps, so identical call
// sequences with different timings compare equal.
func TestSignatureExcludesTimestamps(t *testing.T) {
	a := NewRecorder(0, 8)
	b := NewRecorder(0, 8)
	a.Comm("send", "p2p", 2, 5, 64, time.Now(), 0, 77, false)
	time.Sleep(2 * time.Millisecond)
	b.Comm("send", "p2p", 2, 5, 64, time.Now(), time.Millisecond, 77, false)
	ea, eb := a.Events()[0], b.Events()[0]
	if ea.TS == eb.TS && ea.Wait == eb.Wait {
		t.Skip("timings coincided; nothing to distinguish")
	}
	if ea.Signature() != eb.Signature() {
		t.Fatalf("signatures differ:\n%s\n%s", ea.Signature(), eb.Signature())
	}
	// And it must distinguish the deterministic fields.
	c := NewRecorder(0, 8)
	c.Comm("send", "p2p", 2, 5, 65, time.Now(), 0, 77, false)
	if c.Events()[0].Signature() == ea.Signature() {
		t.Fatal("signature ignores bytes")
	}
	d := NewRecorder(0, 8)
	d.Comm("send", "p2p", 2, 5, 64, time.Now(), 0, 77, true)
	if !strings.HasSuffix(d.Events()[0].Signature(), "|recv") {
		t.Fatal("flowRecv not in signature")
	}
}

// Recorders of one set share an epoch so cross-rank timestamps align.
func TestRecorderSetSharedEpoch(t *testing.T) {
	recs := NewRecorderSet(4, 8)
	if len(recs) != 4 {
		t.Fatalf("got %d recorders", len(recs))
	}
	for r, rec := range recs {
		if rec.Rank() != r {
			t.Fatalf("recorder %d has rank %d", r, rec.Rank())
		}
		if !rec.epoch.Equal(recs[0].epoch) {
			t.Fatal("epochs differ within a set")
		}
	}
}

func TestTracerForwardsToRecorder(t *testing.T) {
	rec := NewRecorder(0, 16)
	tr := New().WithRecorder(rec)
	if tr.EventRecorder() != rec {
		t.Fatal("EventRecorder lost the recorder")
	}
	sp := tr.Start("estimation")
	tr.Instant("fault/bootstrap_dropped", "fault")
	sp.End()
	ev := rec.Events()
	if len(ev) != 3 || ev[0].Kind != EvBegin || ev[1].Kind != EvInstant || ev[2].Kind != EvEnd {
		t.Fatalf("events = %+v", ev)
	}
	// Nil tracer: the whole chain must be inert.
	var nilTr *Tracer
	if nilTr.WithRecorder(rec) != nil || nilTr.EventRecorder() != nil {
		t.Fatal("nil tracer not inert")
	}
	nilTr.Instant("x", "y")
}
