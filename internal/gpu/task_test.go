package gpu

import (
	"testing"

	"repro/internal/sim"
)

// mixedKernel issues every recordable cost op, a block barrier and a clock
// read, with enough ops between barriers to force a mid-segment flush.
func mixedKernel(c *Ctx, stamps []sim.Time) {
	for i := 0; i < 20; i++ {
		c.GlobalRead(256 * (c.WarpInBlock + 1))
		c.Compute(float64(50 + 10*c.WarpInBlock))
	}
	c.SharedWrite(64)
	c.SyncBlock()
	c.SharedRead(64)
	c.Threadfence()
	c.ThreadfenceBlock()
	c.WarpVoteAll()
	c.Compute(0) // free, recorded as nothing
	c.GlobalWrite(512)
	stamps[c.BlockIdx*4+c.WarpInBlock] = c.Now()
	c.Compute(30)
}

// TestRunTaskMatchesImmediateOps runs the same kernel with its cost ops
// performed immediately and deferred through RunTask: every clock reading,
// the makespan and the event count must be identical, and deferral must
// cut the process hand-offs.
func TestRunTaskMatchesImmediateOps(t *testing.T) {
	run := func(deferred bool) (stamps []sim.Time, end sim.Time, events, handoffs int64) {
		eng := sim.New()
		dev := NewDevice(eng, testCfg())
		stamps = make([]sim.Time, 3*4)
		dev.Launch(LaunchSpec{
			Name: "mixed", GridDim: 3, BlockThreads: 4 * 32,
			Fn: func(c *Ctx) {
				if deferred {
					c.RunTask(func() { mixedKernel(c, stamps) })
				} else {
					mixedKernel(c, stamps)
				}
			},
		})
		end = eng.Run()
		events, handoffs = eng.Work()
		return stamps, end, events, handoffs
	}
	s0, end0, ev0, h0 := run(false)
	s1, end1, ev1, h1 := run(true)
	for i := range s0 {
		if s0[i] != s1[i] {
			t.Errorf("warp %d: Now() = %v deferred, %v immediate", i, s1[i], s0[i])
		}
	}
	if end0 != end1 || ev0 != ev1 {
		t.Errorf("deferred run ends at %v after %d events; immediate at %v after %d", end1, ev1, end0, ev0)
	}
	t.Logf("%d events; %d hand-offs immediate, %d deferred", ev0, h0, h1)
	if h1*5 > h0 {
		t.Errorf("hand-offs %d deferred vs %d immediate; want at least a 5x cut", h1, h0)
	}
}

// TestRunTaskFlushesOnPanic charges the ops a kernel recorded before it
// panicked before the panic reaches the caller's recover.
func TestRunTaskFlushesOnPanic(t *testing.T) {
	eng := sim.New()
	dev := NewDevice(eng, testCfg())
	var at sim.Time
	dev.Launch(LaunchSpec{
		Name: "fault", GridDim: 1, BlockThreads: 32,
		Fn: func(c *Ctx) {
			defer func() {
				if recover() != nil {
					at = eng.Now()
				}
			}()
			c.RunTask(func() {
				c.Compute(1000)
				panic("fault")
			})
		},
	})
	eng.Run()
	if at != 1000 {
		t.Fatalf("fault recovered at %v, want 1000 (after the recorded Compute)", at)
	}
	if len(dev.recFree) != 1 {
		t.Fatalf("recorder free list holds %d after the fault, want 1", len(dev.recFree))
	}
}

// TestBlockedWarpNamed checks that a wedged warp is still named by kernel,
// block and warp although the name is built only on demand.
func TestBlockedWarpNamed(t *testing.T) {
	eng := sim.New()
	dev := NewDevice(eng, testCfg())
	var never sim.Signal
	dev.Launch(LaunchSpec{
		Name: "stuck", GridDim: 2, BlockThreads: 2 * 32,
		Fn: func(c *Ctx) {
			if c.BlockIdx == 1 && c.WarpInBlock == 1 {
				c.RunTask(func() {
					c.Compute(10)
					never.Wait(c.Proc())
				})
			}
		},
	})
	eng.Run()
	got := eng.BlockedProcs()
	if len(got) != 1 || got[0] != "stuck/tb1/w1" {
		t.Fatalf("BlockedProcs = %v, want [stuck/tb1/w1]", got)
	}
}
