package sim

// Timer is a cancellable, re-armable one-shot timer. Unlike raw Schedule
// calls, a Timer can be Stopped or re-Reset before it fires. The timer owns a
// single indexed entry in the engine's event heap: ResetAt re-keys that entry
// in place and Stop removes it, so rearm-heavy users (PS) leave no stale
// events behind and Engine.Pending stays proportional to live timers, not
// total Resets.
type Timer struct {
	eng *Engine
	fn  func()
	ev  *event // heap entry while armed, nil otherwise
	at  Time
	set bool
}

// NewTimer returns a timer that invokes fn on the engine's event loop when it
// fires. The timer starts unarmed.
func NewTimer(e *Engine, fn func()) *Timer {
	return &Timer{eng: e, fn: fn}
}

// Reset arms the timer to fire after delay, cancelling any earlier arming.
func (t *Timer) Reset(delay Time) { t.ResetAt(t.eng.now + delay) }

// ResetAt arms the timer to fire at absolute time at, cancelling any earlier
// arming. An armed timer's queue entry is re-keyed in place; re-arming never
// grows the queue. The entry takes a fresh sequence number, so the firing
// order relative to other same-timestamp events is exactly as if it had been
// newly scheduled.
func (t *Timer) ResetAt(at Time) {
	e := t.eng
	t.set = true
	t.at = at
	if t.ev != nil {
		if at < e.now {
			panic("sim: timer reset in the past")
		}
		e.seq++
		t.ev.at = at
		t.ev.seq = e.seq
		e.heapFix(t.ev.idx)
		return
	}
	ev := e.newEvent(at)
	ev.tmr = t
	t.ev = ev
}

// Stop disarms the timer, removing its queue entry. It is safe to call
// whether or not the timer is armed.
func (t *Timer) Stop() {
	t.set = false
	if t.ev != nil {
		ev := t.ev
		t.ev = nil
		t.eng.heapRemove(ev.idx)
		t.eng.freeEvent(ev)
	}
}

// Armed reports whether the timer is set to fire.
func (t *Timer) Armed() bool { return t.set }

// Deadline returns the absolute fire time; meaningful only when Armed.
func (t *Timer) Deadline() Time { return t.at }
