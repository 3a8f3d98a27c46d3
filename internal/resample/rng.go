// Package resample provides the deterministic random number generation and
// bootstrap resampling used throughout UoI.
//
// UoI's statistical guarantees come from stability to perturbation: B1
// selection bootstraps and B2 estimation bootstraps (paper §II-B). UoI_VAR
// additionally requires a *block* bootstrap to preserve the temporal
// dependence of the time series (§II-E, §III-B2). All generators here are
// explicit-state so that distributed runs are reproducible: each (bootstrap,
// rank) pair derives an independent stream from a root seed.
package resample

import "math"

// RNG is a small, fast, explicitly-seeded generator (SplitMix64 core). It is
// deliberately not math/rand so that streams can be derived determinstically
// and cheaply for every (seed, stream) pair across simulated ranks.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{state: seed}
	// Warm up so nearby seeds decorrelate.
	r.Uint64()
	r.Uint64()
	return r
}

// Derive returns an independent stream for the given stream index, leaving r
// untouched. Derivation is stateless: the same (seed, stream) always yields
// the same substream, which is what lets bootstrap k on any rank regenerate
// its sample indices without communication.
func (r *RNG) Derive(stream uint64) *RNG {
	return NewRNG(r.state ^ (0x9E3779B97F4A7C15 * (stream + 1)))
}

// Uint64 advances the generator (SplitMix64).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). Panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("resample: Intn with non-positive n")
	}
	// Lemire-style rejection-free bound is overkill here; modulo bias is
	// negligible for n ≪ 2^64 but we still mask it away with rejection.
	max := uint64(n)
	limit := math.MaxUint64 - math.MaxUint64%max
	for {
		v := r.Uint64()
		if v < limit {
			return int(v % max)
		}
	}
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := float64(2*r.Float64()) - 1
		v := float64(2*r.Float64()) - 1
		s := float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
