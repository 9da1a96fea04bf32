package sim

import "math"

// psEps absorbs floating-point drift when deciding that a request has
// completed.
const psEps = 1e-6

// PS is an egalitarian processor-sharing resource: each of n concurrent
// requests progresses at min(perFlow, total/n) work units per time unit.
// With perFlow = 1 and total = width it is an SMM's instruction issue (a
// lone warp cannot exceed one instruction per cycle, and more than width
// ready warps share the slots equally); with perFlow = +Inf and total = rate
// it is a bandwidth shared by n flows at rate/n each (device memory, one
// PCIe direction).
//
// Completion is event-driven: whenever the active set changes, accumulated
// progress is settled and a single timer is re-armed for the earliest
// finisher.
type PS struct {
	eng     *Engine
	perFlow float64
	total   float64
	// reqs holds in-service requests by value; completion compacts in place
	// and reuses the backing array, so steady-state Acquire never allocates.
	reqs  []psReq
	last  Time
	timer *Timer

	// busy accumulates min(n·perFlow, total) dt and queue accumulates n dt.
	busy  float64
	queue float64
}

type psReq struct {
	remaining float64
	proc      *Proc
}

// NewPS returns a processor-sharing resource on e with the given per-request
// cap and total rate.
func NewPS(e *Engine, perFlow, total float64) *PS {
	r := &PS{eng: e, perFlow: perFlow, total: total, last: e.now}
	r.timer = NewTimer(e, r.onTimer)
	return r
}

// rate is the per-request progress rate; n must be positive.
func (r *PS) rate() float64 {
	return math.Min(r.perFlow, r.total/float64(len(r.reqs)))
}

// settle accrues progress for the interval since the last state change.
func (r *PS) settle() {
	now := r.eng.now
	if dt := now - r.last; dt > 0 && len(r.reqs) > 0 {
		rt := r.rate()
		for i := range r.reqs {
			r.reqs[i].remaining -= dt * rt
		}
		// n > 0 here, so n·perFlow is never 0·Inf.
		n := float64(len(r.reqs))
		r.busy += dt * math.Min(n*r.perFlow, r.total)
		r.queue += dt * n
	}
	r.last = now
}

// rearm schedules the completion timer for the earliest-finishing request.
func (r *PS) rearm() {
	if len(r.reqs) == 0 {
		r.timer.Stop()
		return
	}
	minRem := math.Inf(1)
	for i := range r.reqs {
		if r.reqs[i].remaining < minRem {
			minRem = r.reqs[i].remaining
		}
	}
	if minRem < 0 {
		minRem = 0
	}
	d := minRem / r.rate()
	if now := r.eng.now; now+d == now {
		// Far into a run the clock's float64 ulp exceeds tiny residual
		// delays: the timer would re-fire at the same instant forever
		// (settle sees dt=0 and drains nothing). Fire at the next
		// representable instant instead; one step's drain exceeds the
		// residue, so the request completes there.
		r.timer.ResetAt(math.Nextafter(now, math.Inf(1)))
		return
	}
	r.timer.Reset(d)
}

func (r *PS) onTimer() {
	r.settle()
	kept := r.reqs[:0]
	for i := range r.reqs {
		if r.reqs[i].remaining <= psEps {
			r.reqs[i].proc.wakeup()
		} else {
			kept = append(kept, r.reqs[i])
		}
	}
	r.reqs = kept
	r.rearm()
}

// Acquire blocks p until work units of service have been delivered to it.
// work <= 0 returns immediately.
func (r *PS) Acquire(p *Proc, work float64) {
	if work <= 0 {
		return
	}
	r.settle()
	r.reqs = append(r.reqs, psReq{remaining: work, proc: p})
	r.rearm()
	p.block()
}

// Integrals settles accounting up to the current instant and returns
// ∫min(n·perFlow, total)dt (for issue, the slot-cycles in use) and ∫n dt
// (request-time in service) since the resource was created.
func (r *PS) Integrals() (busy, queue float64) {
	r.settle()
	r.rearm()
	return r.busy, r.queue
}
