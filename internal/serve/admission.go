package serve

import "repro/internal/sim"

// Admission rules decide, at a task's presentation instant, whether to
// admit it. inFlight is the number of admitted tasks not yet completed (the
// system's current backlog as the submitter knows it). A rule may keep state
// (the token bucket does); construct a fresh one per run.
//
// Without admission control an open-loop system past saturation queues
// without bound and every latency percentile diverges; these rules are how
// overload degrades into bounded latency plus explicit drops instead.

// BoundedQueue admits a task only while fewer than Limit admitted tasks are
// in flight; beyond that arrivals are rejected (load shedding at the door).
type BoundedQueue struct {
	Limit int
}

// Admit reports whether a task arriving with inFlight tasks outstanding is
// admitted.
func (p BoundedQueue) Admit(_ sim.Time, inFlight int) bool { return inFlight < p.Limit }

// TokenBucket admits at a sustained Rate (tokens/second) with burst capacity
// Burst: each admission spends a token, tokens refill continuously in
// virtual time. It shapes offered load to a contract independent of the
// backlog signal BoundedQueue uses.
type TokenBucket struct {
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   sim.Time
}

// NewTokenBucket returns a full bucket. rate must be positive; burst is
// clamped to at least one token so a drained system can always admit.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	checkRate(rate)
	if burst < 1 {
		burst = 1
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst}
}

// Admit spends a token if one has accrued by now.
func (p *TokenBucket) Admit(now sim.Time, _ int) bool {
	p.tokens += (now - p.last) * p.rate / cyclesPerSecond
	if p.tokens > p.burst {
		p.tokens = p.burst
	}
	p.last = now
	if p.tokens < 1 {
		return false
	}
	p.tokens--
	return true
}
