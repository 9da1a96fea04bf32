package gpu

import (
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
	smm  *SMM
	proc *sim.Proc

	BlockIdx    int // blockIdx.x
	GridDim     int // gridDim.x
	BlockDim    int // blockDim.x (threads per block)
	WarpInBlock int // warp index within the block
	Args        any // kernel arguments

	// TidBase overrides the default global-thread-id origin. The CUDA layer
	// leaves it zero; the Pagoda MasterKernel sets it so that tasks see task-
	// relative thread IDs regardless of which executor warps they landed on.
	TidBase int

	blockBar *Barrier
}

// Proc exposes the underlying simulation process (for runtime systems built
// on top of raw warps, e.g. Pagoda's MasterKernel).
func (c *Ctx) Proc() *sim.Proc { return c.proc }

// Device returns the device this warp runs on.
func (c *Ctx) Device() *Device { return c.dev }

// SMM returns the multiprocessor this warp is resident on.
func (c *Ctx) SMM() *SMM { return c.smm }

// Now returns the current simulated time in cycles.
func (c *Ctx) Now() sim.Time { return c.dev.Eng.Now() }

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

// --- cost-charging operations ---

// Compute charges `cycles` of instruction issue under processor sharing with
// the other ready warps on this SMM.
func (c *Ctx) Compute(cycles float64) {
	c.smm.issue.Acquire(c.proc, cycles)
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
	c.dev.membw.Acquire(c.proc, float64(n))
	c.proc.Sleep(c.dev.Cfg.GlobalLatency)
}

// GlobalWrite models a warp-wide coalesced write of n bytes. Writes retire
// through the store queue: issue and bandwidth cost, plus a small depart
// latency.
func (c *Ctx) GlobalWrite(n int) {
	c.Compute(c.transactions(n))
	c.dev.membw.Acquire(c.proc, float64(n))
	c.proc.Sleep(c.dev.Cfg.GlobalLatency / 8)
}

// SharedRead models a warp-wide shared-memory read of n bytes.
func (c *Ctx) SharedRead(n int) {
	c.Compute(c.transactions(n))
	c.proc.Sleep(c.dev.Cfg.SharedLatency)
}

// SharedWrite models a warp-wide shared-memory write of n bytes.
func (c *Ctx) SharedWrite(n int) {
	c.Compute(c.transactions(n))
	c.proc.Sleep(c.dev.Cfg.SharedLatency / 2)
}

// AtomicShared performs one shared-memory atomic through the given site,
// serializing with other warps using the same site.
func (c *Ctx) AtomicShared(site *AtomicSite) {
	c.Compute(1)
	site.Do(c.proc)
}

// AtomicGlobal performs one global-memory atomic through the given site.
func (c *Ctx) AtomicGlobal(site *AtomicSite) {
	c.Compute(1)
	site.Do(c.proc)
}

// Threadfence charges the cost of __threadfence() (device-wide visibility).
func (c *Ctx) Threadfence() {
	c.Compute(1)
	c.proc.Sleep(c.dev.Cfg.FenceCost)
}

// ThreadfenceBlock charges the cost of __threadfence_block().
func (c *Ctx) ThreadfenceBlock() {
	c.Compute(1)
	c.proc.Sleep(c.dev.Cfg.FenceBlockCost)
}

// SyncBlock is __syncthreads(): synchronizes all warps of the CUDA
// threadblock. Panics when used from a runtime (like Pagoda's MasterKernel)
// whose blocks must not block-sync; such runtimes provide their own
// sub-threadblock barriers.
func (c *Ctx) SyncBlock() {
	if c.blockBar == nil {
		if c.BlockDim <= c.dev.Cfg.ThreadsPerWarp {
			return // single-warp block: lockstep already synchronizes
		}
		panic("gpu: SyncBlock on a block without a barrier")
	}
	c.Compute(c.dev.Cfg.BarrierCost)
	c.blockBar.Arrive(c.proc)
}

// NamedBarrier synchronizes on an explicitly managed barrier (PTX bar.sync
// with a barrier ID), used by Pagoda's sub-threadblock synchronization.
func (c *Ctx) NamedBarrier(b *Barrier) {
	c.Compute(c.dev.Cfg.BarrierCost)
	b.Arrive(c.proc)
}

// WarpVoteAll models the _all() warp vote: lockstep lanes need only a couple
// of cycles.
func (c *Ctx) WarpVoteAll() { c.Compute(2) }

// Sleep parks the warp for the given number of cycles without consuming
// issue bandwidth (used for modelled waits such as poll back-off).
func (c *Ctx) Sleep(cycles float64) { c.proc.Sleep(cycles) }
