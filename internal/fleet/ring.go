// Package fleet is the replicated serving tier: a router in front of N
// share-nothing serve.Server replicas. Model names are consistent-hashed
// onto a replication-factor-R ring (minimal remap on membership change),
// every replica's /healthz is probed so unhealthy members are evicted from
// routing and re-admitted only once warm-up from .uoim artifacts
// completes, and requests are made robust end-to-end: per-attempt
// timeouts, capped seeded-jitter backoff, bounded failover to the next
// ring replica, and optional hedged sends for idempotent reads with
// cancellation of the loser. On top sits per-tenant token-bucket admission
// (X-Tenant header, 429 with an honest Retry-After) and fleet-wide load
// shedding once aggregate inflight crosses a watermark.
//
// Replicas share nothing — each owns its registry, batchers, and cache —
// following the observation (Matloff, arXiv 1409.5827) that statistically
// independent replicas are the cheapest route to scale: because forecasts
// are pure functions of (artifact, history, horizon), any replica's answer
// is bit-identical to any other's, so failover and hedging are invisible
// in the response bytes.
//
// Fault injection reuses internal/fault: a Plan with ReplicaKill and
// ConnRefused events makes HTTP-level failures as deterministic and
// replayable as the MPI-level ones, which is what the chaos suite builds
// on.
package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// ringPoint is one virtual node: a replica's hash position on the circle.
type ringPoint struct {
	hash uint64
	id   int
}

// Ring is a consistent-hash ring mapping string keys (model names) to an
// ordered preference list of replica IDs. Placement is a pure function of
// (members, key) — independent of insertion order and of process — and
// membership changes remap only the keys that must move (the minimal-remap
// property, asserted by the property tests). Safe for concurrent use.
type Ring struct {
	vnodes int

	mu      sync.RWMutex
	points  []ringPoint // sorted by hash
	members map[int]bool
}

// DefaultVnodes is the default number of virtual nodes per replica; enough
// to spread a handful of models evenly over a handful of replicas while
// keeping lookups cheap.
const DefaultVnodes = 64

// NewRing returns an empty ring with the given number of virtual nodes per
// replica (0 or negative selects DefaultVnodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	return &Ring{vnodes: vnodes, members: make(map[int]bool)}
}

// hashKey positions a key on the circle: FNV-1a 64 (deterministic across
// processes and Go versions, unlike maphash) finished with a splitmix64
// mix — raw FNV clusters similar strings ("replica-0|vnode-1" vs
// "replica-0|vnode-2") into nearby points, which skews ownership badly.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s)) //nolint:errcheck // fnv never errors
	z := h.Sum64()
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Add inserts replica id's virtual nodes (idempotent).
func (r *Ring) Add(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members[id] {
		return
	}
	r.members[id] = true
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, ringPoint{hash: hashKey(fmt.Sprintf("replica-%d|vnode-%d", id, v)), id: id})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].id < r.points[j].id // deterministic on (vanishingly rare) collisions
	})
}

// Len returns the number of member replicas.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Lookup returns up to n distinct replica IDs for key, in preference
// order: the first owner is the first virtual node clockwise from the
// key's hash, and successors are the next distinct replicas around the
// circle. Returns nil when the ring is empty.
func (r *Ring) Lookup(key string, n int) []int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]int, 0, n)
	seen := make(map[int]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.id] {
			seen[p.id] = true
			out = append(out, p.id)
		}
	}
	return out
}
