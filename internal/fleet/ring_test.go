package fleet

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// keys returns k distinct model-name-like keys.
func testKeys(k int) []string {
	out := make([]string, k)
	for i := range out {
		out[i] = fmt.Sprintf("model-%03d", i)
	}
	return out
}

// TestRingDeterminism: placement is a pure function of the member set —
// independent of insertion order — and stable across Ring instances.
func TestRingDeterminism(t *testing.T) {
	a := NewRing(32)
	for _, id := range []int{0, 1, 2, 3, 4} {
		a.Add(id)
	}
	b := NewRing(32)
	for _, id := range []int{4, 2, 0, 3, 1} {
		b.Add(id)
	}
	for _, key := range testKeys(200) {
		la, lb := a.Lookup(key, 3), b.Lookup(key, 3)
		if !reflect.DeepEqual(la, lb) {
			t.Fatalf("key %s: insertion order changed placement: %v vs %v", key, la, lb)
		}
		if len(la) != 3 {
			t.Fatalf("key %s: want 3 candidates, got %v", key, la)
		}
		seen := map[int]bool{}
		for _, id := range la {
			if seen[id] {
				t.Fatalf("key %s: duplicate replica in preference list %v", key, la)
			}
			seen[id] = true
		}
	}
}

// TestRingMinimalRemapOnRemove: removing a replica moves only the keys it
// owned; every other key keeps its primary. This is exact, not
// statistical — the remaining virtual nodes do not move.
func TestRingMinimalRemapOnRemove(t *testing.T) {
	r := NewRing(64)
	for id := 0; id < 5; id++ {
		r.Add(id)
	}
	keys := testKeys(500)
	before := map[string]int{}
	for _, k := range keys {
		before[k] = r.Lookup(k, 1)[0]
	}
	const victim = 2
	r.Remove(victim)
	moved := 0
	for _, k := range keys {
		after := r.Lookup(k, 1)[0]
		if before[k] != victim {
			if after != before[k] {
				t.Fatalf("key %s: primary moved %d → %d though replica %d was removed", k, before[k], after, victim)
			}
			continue
		}
		moved++
		if after == victim {
			t.Fatalf("key %s still maps to removed replica", k)
		}
	}
	if moved == 0 {
		t.Fatal("victim owned no keys; test vacuous — raise key count")
	}
}

// TestRingMinimalRemapOnAdd: adding a replica only moves keys TO the new
// replica; no key moves between pre-existing replicas. The expected moved
// fraction is ~1/(M+1); assert a generous 3× bound so the test is a real
// balance check without being flaky (everything is deterministic anyway).
func TestRingMinimalRemapOnAdd(t *testing.T) {
	r := NewRing(64)
	for id := 0; id < 4; id++ {
		r.Add(id)
	}
	keys := testKeys(1000)
	before := map[string]int{}
	for _, k := range keys {
		before[k] = r.Lookup(k, 1)[0]
	}
	const newcomer = 4
	r.Add(newcomer)
	moved := 0
	for _, k := range keys {
		after := r.Lookup(k, 1)[0]
		if after == before[k] {
			continue
		}
		if after != newcomer {
			t.Fatalf("key %s moved %d → %d, not to the new replica %d", k, before[k], after, newcomer)
		}
		moved++
	}
	if moved == 0 {
		t.Fatal("new replica took no keys")
	}
	if bound := 3 * len(keys) / 5; moved > bound {
		t.Fatalf("add remapped %d/%d keys, beyond the %d bound", moved, len(keys), bound)
	}
}

// TestRingAddRemoveRoundTrip: removing and re-adding the same replica
// restores the exact pre-removal placement (virtual-node hashes are pure
// functions of the ID).
func TestRingAddRemoveRoundTrip(t *testing.T) {
	r := NewRing(48)
	for id := 0; id < 3; id++ {
		r.Add(id)
	}
	keys := testKeys(300)
	before := map[string][]int{}
	for _, k := range keys {
		before[k] = r.Lookup(k, 2)
	}
	r.Remove(1)
	r.Add(1)
	for _, k := range keys {
		if got := r.Lookup(k, 2); !reflect.DeepEqual(got, before[k]) {
			t.Fatalf("key %s: %v after round trip, want %v", k, got, before[k])
		}
	}
}

func TestRingBalance(t *testing.T) {
	r := NewRing(0) // DefaultVnodes
	const replicas = 4
	for id := 0; id < replicas; id++ {
		r.Add(id)
	}
	counts := make([]int, replicas)
	keys := testKeys(2000)
	for _, k := range keys {
		counts[r.Lookup(k, 1)[0]]++
	}
	for id, c := range counts {
		if c < len(keys)/(4*replicas) {
			t.Fatalf("replica %d owns only %d/%d keys; ring badly unbalanced %v", id, c, len(keys), counts)
		}
	}
}

func TestRingEdgeCases(t *testing.T) {
	r := NewRing(16)
	if got := r.Lookup("anything", 2); got != nil {
		t.Fatalf("empty ring lookup = %v, want nil", got)
	}
	r.Add(7)
	r.Add(7) // idempotent
	if got := r.Members(); !reflect.DeepEqual(got, []int{7}) {
		t.Fatalf("members %v", got)
	}
	if got := r.Lookup("m", 5); !reflect.DeepEqual(got, []int{7}) {
		t.Fatalf("single-member lookup %v", got)
	}
	if got := r.Lookup("m", 0); got != nil {
		t.Fatalf("n=0 lookup %v", got)
	}
	r.Remove(3) // not a member: no-op
	r.Remove(7)
	if r.Len() != 0 {
		t.Fatalf("len %d after removing sole member", r.Len())
	}
}

// Remove deletes replica id's virtual nodes (idempotent).
func (r *Ring) Remove(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.members[id] {
		return
	}
	delete(r.members, id)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.id != id {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Members returns the current replica IDs, sorted.
func (r *Ring) Members() []int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]int, 0, len(r.members))
	for id := range r.members {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}
