// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine owns a virtual clock measured in abstract time units (this
// repository uses GPU cycles, 1 cycle = 1 ns at 1 GHz) and an event queue.
// Concurrency is expressed with coroutine-style processes (Proc): the engine
// runs exactly one process at a time and hands the execution baton from
// goroutine to goroutine over unbuffered channels, so simulations are fully
// deterministic and free of data races even though every process is a real
// goroutine. A Stepper is the lighter alternative for a chain of timed steps:
// it runs on the event loop itself, so its steps cost no goroutine switch.
//
// Events scheduled for the same timestamp fire in the order they were
// scheduled (a monotonically increasing sequence number breaks ties).
package sim

import (
	"fmt"
	"math"
)

// Time is the virtual clock type, in cycles. Fractional cycles arise from
// processor sharing (PS).
type Time = float64

// Infinity is a timestamp later than any event the engine will ever fire.
const Infinity Time = math.MaxFloat64

// event is a pooled queue entry. At most one payload field is set: proc (a
// process resume carrying its wake generation), tmr (an armed Timer, which
// owns the entry until it fires or is disarmed), step (a Stepper's next
// step) or fn (a plain callback). idx is the entry's position in the queue
// heap, maintained by the sift routines so timers can re-key or remove their
// entry in place.
type event struct {
	at   Time
	seq  int64
	idx  int
	fn   func()
	proc *Proc
	gen  uint64
	tmr  *Timer
	step Stepper
}

// Stepper is a state machine driven from the event loop instead of from a
// process of its own: each Step runs inline on the loop, does its bounded
// work and schedules whatever ends its next step (ScheduleStep, a PS
// request queued with EnqueueStep, or a wake-up of the process waiting for
// it). A step costs one event and no process hand-off.
type Stepper interface {
	Step()
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// New.
type Engine struct {
	now   Time
	seq   int64
	queue []*event
	// pool recycles popped event structs; its high-water mark is the maximum
	// number of simultaneously pending events, so it stays small.
	pool []*event
	// stopReq is a pending Stop request; the run loop consumes it (setting
	// stopped) before firing the next event. A request left over from a
	// drained run halts the next RunUntil before its first event.
	stopReq bool
	// stopped latches that the most recent run was halted by Stop.
	stopped bool
	// deadline is the active RunUntil bound, visible to whichever goroutine
	// currently drives the event loop.
	deadline Time
	// done carries the baton back to the goroutine blocked in RunUntil when
	// the run ends on some process's goroutine.
	done chan struct{}
	// current is the process currently holding the execution baton, nil when
	// the event loop is running.
	current *Proc
	// procs counts live processes, for leak diagnostics.
	procs int
	// live registers every spawned, unfinished process for BlockedProcs.
	live map[*Proc]struct{}
	// events counts events dispatched (stale wake-ups included) and handoffs
	// counts resumes that moved the baton to another process's goroutine:
	// exact, host-independent work counters (see Work).
	events   int64
	handoffs int64
}

// Work reports the engine's exact work counters since New: events
// dispatched, and process hand-offs — resumes that passed the execution
// baton to a different goroutine (one channel hand-off each). A process that
// resumes itself, a callback and a Stepper step cost no hand-off.
func (e *Engine) Work() (events, handoffs int64) { return e.events, e.handoffs }

// New returns an engine with the clock at zero.
func New() *Engine {
	return &Engine{done: make(chan struct{})}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// newEvent allocates (or recycles) a queue entry at absolute time at and
// assigns the next sequence number. Callers fill in exactly one payload
// field after it returns.
func (e *Engine) newEvent(at Time) *event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule in the past: %v < %v", at, e.now))
	}
	var ev *event
	if n := len(e.pool); n > 0 {
		ev = e.pool[n-1]
		e.pool[n-1] = nil
		e.pool = e.pool[:n-1]
	} else {
		ev = &event{}
	}
	e.seq++
	ev.at = at
	ev.seq = e.seq
	e.heapPush(ev)
	return ev
}

// maxPool bounds the event free list; draining a huge one-shot queue should
// release the surplus to the GC rather than hold it for the run's lifetime.
const maxPool = 1 << 14

// freeEvent returns a popped or removed entry to the pool.
func (e *Engine) freeEvent(ev *event) {
	if len(e.pool) >= maxPool {
		return
	}
	ev.fn = nil
	ev.proc = nil
	ev.tmr = nil
	ev.step = nil
	ev.gen = 0
	e.pool = append(e.pool, ev)
}

// Schedule arranges for fn to run at Now()+delay. A negative delay panics.
// fn runs on the engine's event loop; it may resume processes but must not
// block.
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt arranges for fn to run at absolute time at, which must not be in
// the past.
func (e *Engine) ScheduleAt(at Time, fn func()) {
	e.newEvent(at).fn = fn
}

// ScheduleStep arranges for s.Step to run on the event loop at
// Now()+delay. It takes one sequence number, exactly as a process's Sleep
// does, so a stepper issuing the steps a process used to block on fires
// them in the same order.
func (e *Engine) ScheduleStep(delay Time, s Stepper) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.newEvent(e.now + delay).step = s
}

// scheduleProc queues a resume of p at Now()+delay without allocating a
// closure (the hot Sleep/wakeup path).
func (e *Engine) scheduleProc(delay Time, p *Proc, gen uint64) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	ev := e.newEvent(e.now + delay)
	ev.proc = p
	ev.gen = gen
}

// Stop makes Run return after the currently executing event completes. A Stop
// issued while no run is active halts the next run before its first event.
// Callable from inside event handlers and processes.
func (e *Engine) Stop() { e.stopReq = true }

// Stopped reports whether Stop has been called and not yet superseded by a
// later run.
func (e *Engine) Stopped() bool { return e.stopped || e.stopReq }

// Run executes events until the queue drains or Stop is called. It returns
// the final virtual time.
func (e *Engine) Run() Time { return e.RunUntil(Infinity) }

// RunUntil executes events with timestamps <= deadline, stopping earlier if
// the queue drains or Stop is called. The clock is left at the time of the
// last executed event (or at deadline if the deadline was reached with events
// still pending). A Stop issued before the run starts (e.g. from a completion
// hook between two RunUntil calls) is honored immediately: no event fires.
func (e *Engine) RunUntil(deadline Time) Time {
	if e.stopReq {
		e.stopReq = false
		e.stopped = true
		return e.now
	}
	e.stopped = false
	e.deadline = deadline
	if e.dispatch(nil) == batonHandedOff {
		// The baton went to a process; the run continues on process
		// goroutines until whichever of them ends it signals done.
		<-e.done
	}
	return e.now
}

// dispatchResult says how a dispatch loop ended.
type dispatchResult int

const (
	// runEnded: queue drained, Stop consumed, or deadline reached. Whoever
	// owns the RunUntil frame must be given the baton back (endRun) unless
	// the dispatcher is that frame itself.
	runEnded dispatchResult = iota
	// batonHandedOff: a process other than the dispatcher was resumed and now
	// drives the loop from its own goroutine.
	batonHandedOff
	// selfResumed: the next runnable event was the dispatcher's own resume —
	// it simply continues, with no channel handoff at all (the common
	// Sleep/rearm ping-pong).
	selfResumed
)

// dispatch drives the event loop on the calling goroutine until the run ends
// or the baton moves. self is the process driving the loop from its yield
// point (nil when called from RunUntil or a finished process's goroutine):
// resuming self short-circuits without touching a channel, and resuming any
// other process costs exactly one channel handoff.
func (e *Engine) dispatch(self *Proc) dispatchResult {
	e.current = nil
	for len(e.queue) > 0 {
		if e.stopReq {
			e.stopReq = false
			e.stopped = true
			return runEnded
		}
		ev := e.queue[0]
		if ev.at > e.deadline {
			e.now = e.deadline
			return runEnded
		}
		e.heapPopHead()
		e.events++
		if ev.at > e.now {
			e.now = ev.at
		}
		switch {
		case ev.proc != nil:
			p, gen := ev.proc, ev.gen
			e.freeEvent(ev)
			if p.dead || gen != p.wakeGen || !p.armed {
				continue // stale wake-up
			}
			p.armed = false
			e.current = p
			if p == self {
				return selfResumed
			}
			e.handoffs++
			p.wake <- struct{}{}
			return batonHandedOff
		case ev.step != nil:
			st := ev.step
			e.freeEvent(ev)
			st.Step()
		case ev.tmr != nil:
			t := ev.tmr
			t.ev = nil
			t.set = false
			e.freeEvent(ev)
			t.fn()
		default:
			fn := ev.fn
			e.freeEvent(ev)
			fn()
		}
	}
	return runEnded
}

// endRun hands the baton back to the goroutine blocked in RunUntil. Called by
// a process goroutine whose dispatch saw the run end.
func (e *Engine) endRun() { e.done <- struct{}{} }

// Pending returns the number of queued events (diagnostics). Disarmed and
// superseded timers do not linger in the queue, so this is O(live events).
func (e *Engine) Pending() int { return len(e.queue) }

// LiveProcs returns the number of spawned processes that have not finished.
func (e *Engine) LiveProcs() int { return e.procs }

// BlockedProcs returns the names of live processes that have no pending
// wake-up — the ones parked on a Signal or a PS. When Run returns with the
// queue drained but BlockedProcs is non-empty, those processes are
// deadlocked; the list is the first thing to print when hunting one.
func (e *Engine) BlockedProcs() []string {
	var out []string
	//pagoda:allow maprange diagnostics-only list, sorted below before it is returned
	for p := range e.live {
		if !p.parked || p.dead {
			continue
		}
		out = append(out, p.Name())
	}
	sortStrings(out)
	return out
}

// sortStrings is a tiny insertion sort (avoids importing sort for one call
// site on a diagnostics path).
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
