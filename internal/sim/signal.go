package sim

// Signal is a Mesa-style condition variable for simulation processes.
// Waiters must re-check their predicate in a loop:
//
//	for !cond() {
//	    sig.Wait(p)
//	}
//
// Broadcast and Pulse deliver wake-ups through zero-delay events, so the
// relative order of resumed processes follows the order in which they began
// waiting (FIFO) and is deterministic.
type Signal struct {
	waiters []*Proc
}

// Wait parks p until the signal is pulsed or broadcast. Spurious wake-ups do
// not occur, but because other waiters may run first, predicates must be
// re-checked.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p)
	p.Block()
}

// Broadcast wakes every current waiter. Processes that start waiting after
// the call are not affected. Wakeup only schedules, so no waiter runs (or
// re-waits) during the loop, and the waiter list keeps its backing array: a
// signal that is waited on and broadcast once per task does not allocate
// per task.
func (s *Signal) Broadcast() {
	for i, p := range s.waiters {
		p.Wakeup()
		s.waiters[i] = nil
	}
	s.waiters = s.waiters[:0]
}

// Pulse wakes the longest-waiting process, if any. It reports whether a
// process was woken.
func (s *Signal) Pulse() bool {
	if len(s.waiters) == 0 {
		return false
	}
	p := s.waiters[0]
	s.waiters = s.waiters[1:]
	p.Wakeup()
	return true
}

// Waiting returns the number of parked processes.
func (s *Signal) Waiting() int { return len(s.waiters) }
