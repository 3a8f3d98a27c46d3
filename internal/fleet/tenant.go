package fleet

import (
	"math"
	"sync"
	"time"
)

// TenantLimiter applies per-tenant token-bucket admission. Each tenant
// (the X-Tenant header value; "" is the anonymous tenant, limited like any
// other) gets an independent bucket of Burst tokens refilled at Rate
// tokens/second. Allow is O(1) and lock-scoped to the bucket map, so it
// sits safely on the request path. The zero-value limiter is invalid; use
// NewTenantLimiter.
type TenantLimiter struct {
	rate  float64
	burst float64

	mu      sync.Mutex
	buckets map[string]*bucket
	// now is stubbed in tests; defaults to time.Now.
	now func() time.Time
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewTenantLimiter builds a limiter granting each tenant burst tokens
// refilled at rate tokens/second. A nil limiter (rate <= 0 at the call
// sites) admits everything.
func NewTenantLimiter(rate float64, burst int) *TenantLimiter {
	if burst < 1 {
		burst = 1
	}
	return &TenantLimiter{
		rate:    rate,
		burst:   float64(burst),
		buckets: make(map[string]*bucket),
		now:     time.Now,
	}
}

// Allow consumes one token from tenant's bucket. When the bucket is empty
// it reports ok=false along with the time until one token refills — the
// honest Retry-After a shed client should wait before trying again. A nil
// limiter admits everything.
func (l *TenantLimiter) Allow(tenant string) (ok bool, retryAfter time.Duration) {
	if l == nil {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b := l.buckets[tenant]
	if b == nil {
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[tenant] = b
	} else {
		b.tokens = math.Min(l.burst, b.tokens+float64(l.rate*now.Sub(b.last).Seconds()))
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	if l.rate <= 0 {
		// A zero-rate bucket never refills; tell the client to go away for
		// a long-but-finite while rather than dividing by zero.
		return false, time.Hour
	}
	need := 1 - b.tokens
	return false, time.Duration(need / l.rate * float64(time.Second))
}

// Occupancy reports each tracked tenant's current token count, with refill
// projected to now but without mutating bucket state (a read-only view for
// the metrics scrape).
func (l *TenantLimiter) Occupancy() map[string]float64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	out := make(map[string]float64, len(l.buckets))
	for tenant, b := range l.buckets {
		out[tenant] = math.Min(l.burst, b.tokens+float64(l.rate*now.Sub(b.last).Seconds()))
	}
	return out
}

// Tenants returns the number of tracked tenants (for the monitor snapshot).
func (l *TenantLimiter) Tenants() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buckets)
}

// retryAfterSeconds rounds a wait up to whole seconds for the Retry-After
// header, clamped to at least 1 (the header carries integer seconds, and
// "0" would invite an immediate, pointless retry).
func retryAfterSeconds(d time.Duration) int {
	s := int(math.Ceil(d.Seconds()))
	if s < 1 {
		s = 1
	}
	return s
}
