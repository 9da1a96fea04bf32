package sim

import "testing"

// chain is a minimal Stepper: it walks a list of PS requests (ps != nil) and
// latencies, and its last step resumes the parked process, the same way the
// gpu layer's cost-op recorder does.
type chain struct {
	p     *Proc
	steps []chainStep
	pos   int
}

type chainStep struct {
	ps *PS
	v  float64
}

func (c *chain) Step() {
	s := c.steps[c.pos]
	c.pos++
	last := c.pos == len(c.steps)
	switch {
	case s.ps == nil && last:
		c.p.WakeAfter(s.v)
	case s.ps == nil:
		c.p.Engine().ScheduleStep(s.v, c)
	case last:
		s.ps.Enqueue(c.p, s.v)
	default:
		s.ps.EnqueueStep(c, s.v)
	}
}

// TestParkedChainMatchesBlocking runs one process's PS requests and sleeps
// blocking on each, then as a Stepper chain it parks on once, next to a
// competitor sharing the PS. Every instant either process observes, the
// event count and the final time must be identical; the chain saves
// hand-offs.
func TestParkedChainMatchesBlocking(t *testing.T) {
	run := func(parked bool) (seen []Time, events, handoffs int64) {
		e := New()
		ps := NewPS(e, 1, 1.5)
		steps := []chainStep{{ps, 5}, {nil, 3}, {ps, 2}, {nil, 0}, {ps, 4}, {nil, 1}}
		e.Spawn("a", func(p *Proc) {
			for round := 0; round < 3; round++ {
				if parked {
					p.Park(&chain{p: p, steps: steps})
				} else {
					for _, s := range steps {
						if s.ps != nil {
							s.ps.Acquire(p, s.v)
						} else {
							p.Sleep(s.v)
						}
					}
				}
				seen = append(seen, p.Now())
			}
		})
		e.Spawn("b", func(p *Proc) {
			for i := 0; i < 6; i++ {
				ps.Acquire(p, 3)
				seen = append(seen, p.Now())
				p.Sleep(1)
			}
		})
		e.Run()
		events, handoffs = e.Work()
		return seen, events, handoffs
	}
	blocking, ev0, h0 := run(false)
	chained, ev1, h1 := run(true)
	if len(blocking) != len(chained) {
		t.Fatalf("observations: %v blocking, %v chained", blocking, chained)
	}
	for i := range blocking {
		if blocking[i] != chained[i] {
			t.Fatalf("observation %d: %v chained, %v blocking (all: %v vs %v)", i, chained[i], blocking[i], chained, blocking)
		}
	}
	if ev0 != ev1 {
		t.Errorf("events: %d chained, %d blocking", ev1, ev0)
	}
	if h1 >= h0 {
		t.Errorf("hand-offs: %d chained, not fewer than %d blocking", h1, h0)
	}
}

func TestEnqueueZeroWorkQueuesNothing(t *testing.T) {
	e := New()
	ps := NewPS(e, 1, 1)
	if ps.Enqueue(nil, 0) || ps.EnqueueStep(nil, -1) {
		t.Fatal("a request for no work was queued")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", e.Pending())
	}
}

func TestWakeAfterNeedsParkedProc(t *testing.T) {
	e := New()
	var msg any
	e.Spawn("free", func(p *Proc) {
		defer func() { msg = recover() }()
		p.WakeAfter(1)
	})
	e.Run()
	if msg == nil {
		t.Fatal("WakeAfter on a running process did not panic")
	}
}
