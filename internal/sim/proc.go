package sim

import "fmt"

// Proc is a coroutine-style simulation process. A Proc runs on its own
// goroutine but only while it holds the engine's execution baton. When it
// blocks on a simulation primitive (Sleep, Wait, ...) it does not bounce the
// baton through a central loop goroutine: the blocking goroutine itself keeps
// driving the event loop (Engine.dispatch) and hands the baton directly to
// the next process — one channel handoff per switch. Exactly one Proc (or
// one dispatch loop) runs at any instant, which makes all simulation state
// single-threaded.
type Proc struct {
	eng  *Engine
	name string
	// namer, when set, builds the name on demand (SpawnNamed), so a process
	// spawned on a hot path pays for its name only when a diagnostic asks.
	namer fmt.Stringer
	wake  chan struct{} // dispatcher -> proc: you hold the baton
	dead  bool
	// wakeGen guards against double wake-ups: a blocked proc records the
	// generation it is waiting on, and stale resume events are dropped.
	wakeGen uint64
	// armed reports whether some event/signal is due to resume this proc.
	armed bool
	// parked reports the proc is blocked with no scheduled wake-up event
	// (Signal.Wait, PS.Acquire) — only an explicit wakeup can resume it.
	parked bool
}

// Spawn creates a process executing body and schedules it to start at the
// current time. The name is used in diagnostics only.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	return e.spawn(&Proc{eng: e, name: name}, body)
}

// SpawnNamed is Spawn with a name built only when Name is called.
func (e *Engine) SpawnNamed(name fmt.Stringer, body func(p *Proc)) *Proc {
	return e.spawn(&Proc{eng: e, namer: name}, body)
}

func (e *Engine) spawn(p *Proc, body func(p *Proc)) *Proc {
	p.wake = make(chan struct{})
	e.procs++
	if e.live == nil {
		e.live = make(map[*Proc]struct{})
	}
	e.live[p] = struct{}{}
	go func() {
		<-p.wake // wait for first resume
		body(p)
		p.dead = true
		e.procs--
		delete(e.live, p)
		// The finished process still holds the baton: keep driving the event
		// loop here, then let the goroutine exit once the baton moves on.
		if e.dispatch(nil) == runEnded {
			e.endRun()
		}
	}()
	gen := p.arm()
	e.scheduleProc(0, p, gen)
	return p
}

// Name returns the diagnostic name given at Spawn or SpawnNamed.
func (p *Proc) Name() string {
	if p.namer != nil {
		return p.namer.String()
	}
	return p.name
}

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// arm marks the proc as having a pending wake-up and returns the generation
// token that the matching resume must present.
func (p *Proc) arm() uint64 {
	if p.armed {
		panic(fmt.Sprintf("sim: proc %q armed twice", p.Name()))
	}
	p.armed = true
	p.wakeGen++
	return p.wakeGen
}

// yield releases the baton and blocks until resumed. The caller must have
// armed a wake-up beforehand. Rather than handing control to a central loop,
// the yielding goroutine runs the event loop itself until the baton moves to
// another process (or the run ends), then parks on its own wake channel.
func (p *Proc) yield() {
	if !p.armed {
		panic(fmt.Sprintf("sim: proc %q yielding with no pending wake-up", p.Name()))
	}
	e := p.eng
	switch e.dispatch(p) {
	case selfResumed:
		return // baton came straight back, no handoff needed
	case runEnded:
		e.endRun()
	}
	<-p.wake
}

// Sleep blocks the process for d time units. d == 0 yields the baton and
// resumes after already-queued events at the current time.
func (p *Proc) Sleep(d Time) {
	gen := p.arm()
	p.eng.scheduleProc(d, p, gen)
	p.yield()
}

// block parks the process indefinitely until another party calls wakeup.
func (p *Proc) block() {
	p.arm()
	p.parked = true
	p.yield()
	p.parked = false
}

// wakeup resumes a process parked with block. It must be called from the
// event loop or another process; the wake-up takes effect via a zero-delay
// event so ordering stays deterministic.
func (p *Proc) wakeup() {
	if !p.armed || p.dead {
		return
	}
	p.eng.scheduleProc(0, p, p.wakeGen)
}

// Park blocks the process until the work first starts ends in a wake-up of
// it: Park arms p, runs first.Step inline to issue the first step, and
// yields. Every later step runs on the event loop; the last one resumes p,
// through WakeAfter or a PS request queued with Enqueue. A chain of n timed
// steps thus costs n events but at most one hand-off back to p, where
// blocking on each step could hand the baton off n times.
func (p *Proc) Park(first Stepper) {
	p.arm()
	p.parked = true
	first.Step()
	p.yield()
	p.parked = false
}

// WakeAfter resumes p, blocked in Park, at Now()+d. It takes one sequence
// number, exactly as Sleep(d) would have.
func (p *Proc) WakeAfter(d Time) {
	if !p.armed || p.dead {
		panic(fmt.Sprintf("sim: WakeAfter on proc %q, which is not parked", p.Name()))
	}
	p.eng.scheduleProc(d, p, p.wakeGen)
}
