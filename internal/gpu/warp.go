package gpu

import (
	"fmt"

	"repro/internal/sim"
)

// Ctx is the per-warp device execution context handed to a KernelFunc. It
// plays the role of the CUDA built-ins (threadIdx/blockIdx/blockDim) plus the
// cost-charging API of the simulator.
//
// A kernel function runs warp-synchronously: it is invoked once per warp and
// iterates over its 32 lanes with ForEachLane when it needs per-thread
// behaviour.
type Ctx struct {
	dev  *Device
	tb   *threadBlock
	proc *sim.Proc
	// rec records the warp's cost ops while it runs a task kernel (RunTask);
	// nil means ops are performed immediately.
	rec *recorder

	BlockIdx    int // blockIdx.x
	GridDim     int // gridDim.x
	BlockDim    int // blockDim.x (threads per block)
	WarpInBlock int // warp index within the block
	Args        any // kernel arguments

	// TidBase overrides the default global-thread-id origin. The CUDA layer
	// leaves it zero; the Pagoda MasterKernel sets it so that tasks see task-
	// relative thread IDs regardless of which executor warps they landed on.
	TidBase int
}

// Proc exposes the underlying simulation process (for runtime systems built
// on top of raw warps, e.g. Pagoda's MasterKernel). Inside RunTask it
// flushes the recorded cost ops first, since the caller may block on it.
func (c *Ctx) Proc() *sim.Proc {
	c.flush()
	return c.proc
}

// Device returns the device this warp runs on.
func (c *Ctx) Device() *Device { return c.dev }

// SMM returns the multiprocessor this warp is resident on.
func (c *Ctx) SMM() *SMM { return c.tb.smm }

// Now returns the current simulated time in cycles. Inside RunTask it
// flushes the recorded cost ops first, so the clock reflects them.
func (c *Ctx) Now() sim.Time {
	c.flush()
	return c.dev.Eng.Now()
}

// String names the warp for diagnostics (sim.Engine.BlockedProcs):
// kernel/tbN/wM.
func (c *Ctx) String() string {
	return fmt.Sprintf("%s/tb%d/w%d", c.tb.kernel.Spec.Name, c.tb.blockIdx, c.WarpInBlock)
}

// WarpSize returns the SIMT width (32).
func (c *Ctx) WarpSize() int { return c.dev.Cfg.ThreadsPerWarp }

// LaneBase returns the global thread id of lane 0 of this warp.
func (c *Ctx) LaneBase() int {
	return c.TidBase + c.BlockIdx*c.BlockDim + c.WarpInBlock*c.dev.Cfg.ThreadsPerWarp
}

// ActiveLanes returns how many lanes of this warp map to real threads (the
// last warp of a block may be partial).
func (c *Ctx) ActiveLanes() int {
	remaining := c.BlockDim - c.WarpInBlock*c.dev.Cfg.ThreadsPerWarp
	if remaining >= c.dev.Cfg.ThreadsPerWarp {
		return c.dev.Cfg.ThreadsPerWarp
	}
	if remaining < 0 {
		return 0
	}
	return remaining
}

// ForEachLane invokes fn for every active lane with that lane's global
// thread id (getTid() in the Pagoda API). It charges no simulated time;
// charge compute costs separately.
func (c *Ctx) ForEachLane(fn func(tid int)) {
	base := c.LaneBase()
	for l := 0; l < c.ActiveLanes(); l++ {
		fn(base + l)
	}
}

// --- deferred cost ops ---

// maxSteps bounds the cost steps a warp records before it must flush, and
// with it each recorder's memory.
const maxSteps = 32

// costStep is one timed step of a recorded cost op: a request for v work
// units on ps or, when ps is nil, a latency of v cycles.
type costStep struct {
	ps *sim.PS
	v  float64
}

// recorder holds the cost steps a warp records inside RunTask and, at each
// flush, walks them as a sim.Stepper on the event loop: each completed step
// issues the next, and the last one resumes the warp's process. Recorders
// come from a per-Device free list, so a Ctx stays small.
type recorder struct {
	proc   *sim.Proc
	n, pos int
	steps  [maxSteps]costStep
}

func (r *recorder) add(s costStep) {
	if r.n == maxSteps {
		r.flush()
	}
	r.steps[r.n] = s
	r.n++
}

// flush runs the recorded steps with the warp blocked once for all of them.
func (r *recorder) flush() {
	if r.n == 0 {
		return
	}
	r.pos = 0
	r.proc.Park(r)
	r.n = 0
}

// Step issues the next recorded step. Every recorded PS step has positive
// work and every latency is an event, so each step ends in exactly one
// event: the next Step, or the warp's wake-up after the last.
func (r *recorder) Step() {
	s := r.steps[r.pos]
	r.pos++
	switch last := r.pos == r.n; {
	case s.ps == nil && last:
		r.proc.WakeAfter(s.v)
	case s.ps == nil:
		r.proc.Engine().ScheduleStep(s.v, r)
	case last:
		s.ps.Enqueue(r.proc, s.v)
	default:
		s.ps.EnqueueStep(r, s.v)
	}
}

// RunTask runs fn, a task kernel body, with the warp's cost ops deferred.
// Compute, GlobalRead/Write, SharedRead/Write, the fences and WarpVoteAll
// are recorded instead of performed; at each flush the recorded steps run on
// an event-loop stepper while the warp blocks once for all of them. A flush
// happens at SyncBlock and NamedBarrier, before atomics, Sleep, Now and
// Proc, when maxSteps steps are pending, and when fn returns or panics (ops
// recorded before a panic are charged before it propagates).
//
// Deferral is exact: the stepper issues the same PS requests and latencies
// at the same instants, and takes the same event sequence numbers, as the
// warp blocking on each op would. It relies on the kernel rule: between
// flushes, fn touches only its own lanes and its block's shared memory, and
// reads no simulation state except through Now, which flushes.
func (c *Ctx) RunTask(fn func()) {
	if c.rec != nil {
		panic("gpu: nested RunTask")
	}
	d := c.dev
	if n := len(d.recFree); n > 0 {
		c.rec = d.recFree[n-1]
		d.recFree = d.recFree[:n-1]
	} else {
		c.rec = &recorder{}
	}
	c.rec.proc = c.proc
	defer c.endTask()
	fn()
}

// endTask flushes the task's remaining ops and returns the recorder.
func (c *Ctx) endTask() {
	r := c.rec
	r.flush()
	r.proc = nil
	c.rec = nil
	c.dev.recFree = append(c.dev.recFree, r)
}

// flush performs the recorded cost ops (no-op outside RunTask).
func (c *Ctx) flush() {
	if c.rec != nil {
		c.rec.flush()
	}
}

// acquire charges work units on ps: recorded inside RunTask, blocking
// otherwise. Work <= 0 costs nothing either way.
func (c *Ctx) acquire(ps *sim.PS, work float64) {
	if c.rec == nil {
		ps.Acquire(c.proc, work)
	} else if work > 0 {
		c.rec.add(costStep{ps: ps, v: work})
	}
}

// latency deschedules the warp for d cycles: recorded inside RunTask,
// blocking otherwise.
func (c *Ctx) latency(d sim.Time) {
	if c.rec == nil {
		c.proc.Sleep(d)
	} else {
		c.rec.add(costStep{v: d})
	}
}

// --- cost-charging operations ---

// Compute charges `cycles` of instruction issue under processor sharing with
// the other ready warps on this SMM.
func (c *Ctx) Compute(cycles float64) {
	c.acquire(c.tb.smm.issue, cycles)
}

// transactions returns the number of coalesced memory transactions for a
// warp-wide access of n bytes.
func (c *Ctx) transactions(n int) float64 {
	cb := c.dev.Cfg.CoalesceBytes
	t := (n + cb - 1) / cb
	if t < 1 {
		t = 1
	}
	return float64(t)
}

// GlobalRead models a warp-wide coalesced read of n bytes from device
// memory: issue cost proportional to transactions, the bandwidth-shared
// transfer, then the memory latency with the warp descheduled (so other
// warps can hide it).
func (c *Ctx) GlobalRead(n int) {
	c.Compute(c.transactions(n))
	c.acquire(c.dev.membw, float64(n))
	c.latency(c.dev.Cfg.GlobalLatency)
}

// GlobalWrite models a warp-wide coalesced write of n bytes. Writes retire
// through the store queue: issue and bandwidth cost, plus a small depart
// latency.
func (c *Ctx) GlobalWrite(n int) {
	c.Compute(c.transactions(n))
	c.acquire(c.dev.membw, float64(n))
	c.latency(c.dev.Cfg.GlobalLatency / 8)
}

// SharedRead models a warp-wide shared-memory read of n bytes.
func (c *Ctx) SharedRead(n int) {
	c.Compute(c.transactions(n))
	c.latency(c.dev.Cfg.SharedLatency)
}

// SharedWrite models a warp-wide shared-memory write of n bytes.
func (c *Ctx) SharedWrite(n int) {
	c.Compute(c.transactions(n))
	c.latency(c.dev.Cfg.SharedLatency / 2)
}

// AtomicShared performs one shared-memory atomic through the given site,
// serializing with other warps using the same site.
func (c *Ctx) AtomicShared(site *AtomicSite) {
	c.Compute(1)
	c.flush()
	site.Do(c.proc)
}

// AtomicGlobal performs one global-memory atomic through the given site.
func (c *Ctx) AtomicGlobal(site *AtomicSite) {
	c.Compute(1)
	c.flush()
	site.Do(c.proc)
}

// Threadfence charges the cost of __threadfence() (device-wide visibility).
func (c *Ctx) Threadfence() {
	c.Compute(1)
	c.latency(c.dev.Cfg.FenceCost)
}

// ThreadfenceBlock charges the cost of __threadfence_block().
func (c *Ctx) ThreadfenceBlock() {
	c.Compute(1)
	c.latency(c.dev.Cfg.FenceBlockCost)
}

// SyncBlock is __syncthreads(): synchronizes all warps of the CUDA
// threadblock. Panics when used from a runtime (like Pagoda's MasterKernel)
// whose blocks must not block-sync; such runtimes provide their own
// sub-threadblock barriers.
func (c *Ctx) SyncBlock() {
	if c.tb.barrier == nil {
		if c.BlockDim <= c.dev.Cfg.ThreadsPerWarp {
			return // single-warp block: lockstep already synchronizes
		}
		panic("gpu: SyncBlock on a block without a barrier")
	}
	c.NamedBarrier(c.tb.barrier)
}

// NamedBarrier synchronizes on an explicitly managed barrier (PTX bar.sync
// with a barrier ID), used by Pagoda's sub-threadblock synchronization.
func (c *Ctx) NamedBarrier(b *Barrier) {
	c.Compute(c.dev.Cfg.BarrierCost)
	c.flush()
	b.Arrive(c.proc)
}

// WarpVoteAll models the _all() warp vote: lockstep lanes need only a couple
// of cycles.
func (c *Ctx) WarpVoteAll() { c.Compute(2) }

// Sleep parks the warp for the given number of cycles without consuming
// issue bandwidth (used for modelled waits such as poll back-off).
func (c *Ctx) Sleep(cycles float64) {
	c.flush()
	c.proc.Sleep(cycles)
}
