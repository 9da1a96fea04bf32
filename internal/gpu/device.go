package gpu

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/trace"
)

// KernelFunc is device code, invoked once per warp. Lane-level work is
// expressed through the Ctx helpers; simulated cost is charged through the
// Ctx op methods (Compute, GlobalRead, ...).
type KernelFunc func(ctx *Ctx)

// LaunchSpec describes a kernel launch (grid, block shape, resources).
type LaunchSpec struct {
	Name          string
	GridDim       int // number of threadblocks
	BlockThreads  int // threads per threadblock (<= 1024)
	SharedPerTB   int // bytes of shared memory per threadblock
	RegsPerThread int // register budget per thread (occupancy input)
	Fn            KernelFunc
	Args          any
}

// WarpsPerTB returns the number of warps a threadblock occupies.
func (s LaunchSpec) WarpsPerTB(cfg Config) int {
	return (s.BlockThreads + cfg.ThreadsPerWarp - 1) / cfg.ThreadsPerWarp
}

// Kernel is an in-flight (or finished) kernel launch.
type Kernel struct {
	Spec     LaunchSpec
	dev      *Device
	tbsDone  int
	finished bool
	doneSig  sim.Signal

	StartTime sim.Time // first threadblock dispatched
	EndTime   sim.Time // last threadblock completed
	started   bool
}

// Finished reports whether all threadblocks have completed.
func (k *Kernel) Finished() bool { return k.finished }

// WaitDone parks p until the kernel finishes.
func (k *Kernel) WaitDone(p *sim.Proc) {
	for !k.finished {
		k.doneSig.Wait(p)
	}
}

// threadBlock is one block of a kernel pending dispatch or resident on an
// SMM.
type threadBlock struct {
	kernel     *Kernel
	blockIdx   int
	smm        *SMM
	warpsLeft  int
	barrier    *Barrier
	placedAt   sim.Time
	spillDelay sim.Time // coordinator swap-in cost before warps may execute
}

// SMM is one streaming multiprocessor: an issue engine plus resource
// accounting for resident threadblocks.
type SMM struct {
	dev *Device
	ID  int

	issue *sim.PS // perFlow 1, total IssueWidth: a lone warp issues at most once a cycle

	residentTBs     int
	residentThreads int
	residentWarps   int
	usedShared      int
	usedRegs        int

	// warpIntegral accumulates residentWarps dt for occupancy metrics.
	warpIntegral float64
	lastWarpUpd  sim.Time
}

func (m *SMM) settleWarps() {
	now := m.dev.Eng.Now()
	m.warpIntegral += float64(m.residentWarps) * (now - m.lastWarpUpd)
	m.lastWarpUpd = now
}

// fits reports whether a threadblock of the given spec can be placed now.
// The capacities are the device's admission caps: physical by default,
// oversubscribed when a virtualization coordinator is installed.
func (m *SMM) fits(spec LaunchSpec) bool {
	cfg := m.dev.Cfg
	caps := m.dev.caps
	warps := spec.WarpsPerTB(cfg)
	regs := spec.RegsPerThread * warps * cfg.ThreadsPerWarp
	return m.residentTBs+1 <= caps.tbs &&
		m.residentThreads+spec.BlockThreads <= caps.threads &&
		m.residentWarps+warps <= caps.warps &&
		m.usedShared+spec.SharedPerTB <= caps.shared &&
		m.usedRegs+regs <= caps.regs
}

func (m *SMM) place(tb *threadBlock) {
	cfg := m.dev.Cfg
	spec := tb.kernel.Spec
	warps := spec.WarpsPerTB(cfg)
	m.settleWarps()
	m.residentTBs++
	m.residentThreads += spec.BlockThreads
	m.residentWarps += warps
	m.usedShared += spec.SharedPerTB
	m.usedRegs += spec.RegsPerThread * warps * cfg.ThreadsPerWarp
	tb.smm = m
	if v := m.dev.Virt; v != nil {
		tb.spillDelay = v.admit(m, spec, warps)
	}
}

func (m *SMM) release(tb *threadBlock) {
	cfg := m.dev.Cfg
	spec := tb.kernel.Spec
	warps := spec.WarpsPerTB(cfg)
	m.settleWarps()
	m.residentTBs--
	m.residentThreads -= spec.BlockThreads
	m.residentWarps -= warps
	m.usedShared -= spec.SharedPerTB
	m.usedRegs -= spec.RegsPerThread * warps * cfg.ThreadsPerWarp
}

// FreeWarps returns the number of warp slots currently unoccupied.
func (m *SMM) FreeWarps() int { return m.dev.Cfg.WarpsPerSMM - m.residentWarps }

// ResidentWarps returns the warps currently resident.
func (m *SMM) ResidentWarps() int { return m.residentWarps }

// Device is the simulated GPU.
type Device struct {
	Eng  *sim.Engine
	Cfg  Config
	SMMs []*SMM

	pending []*threadBlock // FIFO dispatch queue (head-of-line blocking, as in CUDA)

	membw *sim.PS // device-memory bandwidth, shared by all global accesses with no per-flow cap

	// Trace, when set, records kernel and threadblock spans.
	Trace *trace.Tracer

	// Virt, when non-nil, is the Zorua-style virtualization coordinator:
	// threadblocks are admitted against its oversubscribed capacities and
	// charged its spill cost. Nil means static (physical) admission.
	Virt *Coordinator

	// caps are the admission capacities tryDispatch enforces — physical
	// unless Virtualize has installed a coordinator.
	caps occCaps

	createdAt sim.Time
}

// NewDevice builds a device on the given engine.
func NewDevice(eng *sim.Engine, cfg Config) *Device {
	cfg.Validate()
	d := &Device{Eng: eng, Cfg: cfg, caps: physCaps(cfg), createdAt: eng.Now()}
	d.membw = sim.NewPS(eng, math.Inf(1), cfg.MemBandwidth)
	d.SMMs = make([]*SMM, cfg.NumSMMs)
	for i := range d.SMMs {
		d.SMMs[i] = &SMM{
			dev:         d,
			ID:          i,
			issue:       sim.NewPS(eng, 1, cfg.IssueWidth),
			lastWarpUpd: eng.Now(),
		}
	}
	return d
}

// Virtualize installs a dynamic-resource virtualization coordinator:
// subsequent threadblock dispatch admits against the oversubscribed
// capacities and pays the coordinator's spill cost whenever live demand
// exceeds physical capacity. With factors <= 1 this is a no-op (admission
// stays physical). It returns the coordinator for spill accounting.
func (d *Device) Virtualize(ov Oversub) *Coordinator {
	d.Virt = NewCoordinator(d.Cfg, ov)
	d.caps = d.Virt.caps
	return d.Virt
}

// Launch validates the spec and enqueues the kernel's threadblocks for
// dispatch. It returns immediately (launch overhead and stream ordering are
// the CUDA layer's concern).
func (d *Device) Launch(spec LaunchSpec) *Kernel {
	if spec.GridDim <= 0 || spec.BlockThreads <= 0 {
		panic(fmt.Sprintf("gpu: invalid launch %q: grid=%d block=%d", spec.Name, spec.GridDim, spec.BlockThreads))
	}
	if spec.BlockThreads > d.Cfg.MaxThreadsPerTB {
		panic(fmt.Sprintf("gpu: launch %q: %d threads/TB exceeds limit %d", spec.Name, spec.BlockThreads, d.Cfg.MaxThreadsPerTB))
	}
	if spec.SharedPerTB > d.Cfg.MaxSharedPerTB {
		panic(fmt.Sprintf("gpu: launch %q: %d B shared/TB exceeds limit %d", spec.Name, spec.SharedPerTB, d.Cfg.MaxSharedPerTB))
	}
	if spec.RegsPerThread <= 0 {
		spec.RegsPerThread = 32
	}
	if spec.RegsPerThread > d.Cfg.MaxRegsPerThread {
		spec.RegsPerThread = d.Cfg.MaxRegsPerThread
	}
	k := &Kernel{Spec: spec, dev: d}
	warpsPerTB := spec.WarpsPerTB(d.Cfg)
	for b := 0; b < spec.GridDim; b++ {
		tb := &threadBlock{kernel: k, blockIdx: b, warpsLeft: warpsPerTB}
		if spec.BlockThreads > d.Cfg.ThreadsPerWarp {
			tb.barrier = NewBarrier(d.Eng, warpsPerTB)
		}
		d.pending = append(d.pending, tb)
	}
	d.tryDispatch()
	return k
}

// tryDispatch places queued threadblocks in FIFO order until the head no
// longer fits anywhere (head-of-line blocking, matching the hardware
// threadblock scheduler the paper contrasts with warp-level scheduling).
func (d *Device) tryDispatch() {
	for len(d.pending) > 0 {
		tb := d.pending[0]
		smm := d.pickSMM(tb.kernel.Spec)
		if smm == nil {
			return
		}
		d.pending = d.pending[1:]
		smm.place(tb)
		tb.placedAt = d.Eng.Now()
		k := tb.kernel
		if !k.started {
			k.started = true
			k.StartTime = d.Eng.Now()
		}
		d.startWarps(tb)
	}
}

// pickSMM returns the SMM with the most free warp slots that fits the spec,
// or nil. Ties break toward the lowest ID for determinism.
func (d *Device) pickSMM(spec LaunchSpec) *SMM {
	var best *SMM
	for _, m := range d.SMMs {
		if !m.fits(spec) {
			continue
		}
		if best == nil || m.FreeWarps() > best.FreeWarps() {
			best = m
		}
	}
	return best
}

// startWarps spawns one simulation process per warp of the threadblock.
func (d *Device) startWarps(tb *threadBlock) {
	spec := tb.kernel.Spec
	warps := spec.WarpsPerTB(d.Cfg)
	for w := 0; w < warps; w++ {
		w := w
		name := fmt.Sprintf("%s/tb%d/w%d", spec.Name, tb.blockIdx, w)
		d.Eng.Spawn(name, func(p *sim.Proc) {
			if tb.spillDelay > 0 {
				p.Sleep(tb.spillDelay)
			}
			ctx := &Ctx{
				dev:         d,
				smm:         tb.smm,
				proc:        p,
				BlockIdx:    tb.blockIdx,
				GridDim:     spec.GridDim,
				BlockDim:    spec.BlockThreads,
				WarpInBlock: w,
				Args:        spec.Args,
				blockBar:    tb.barrier,
			}
			spec.Fn(ctx)
			d.warpDone(tb)
		})
	}
}

func (d *Device) warpDone(tb *threadBlock) {
	tb.warpsLeft--
	if tb.warpsLeft > 0 {
		return
	}
	tb.smm.release(tb)
	k := tb.kernel
	if d.Trace.Enabled() {
		d.Trace.Add(trace.Span{
			Name: fmt.Sprintf("%s/tb%d", k.Spec.Name, tb.blockIdx), Cat: "threadblock",
			Track: fmt.Sprintf("SMM%02d", tb.smm.ID), Start: tb.placedAt, End: d.Eng.Now(),
		})
	}
	k.tbsDone++
	if k.tbsDone == k.Spec.GridDim {
		k.finished = true
		k.EndTime = d.Eng.Now()
		if d.Trace.Enabled() {
			d.Trace.Add(trace.Span{
				Name: k.Spec.Name, Cat: "kernel", Track: "kernels",
				Start: k.StartTime, End: k.EndTime,
			})
		}
		k.doneSig.Broadcast()
	}
	d.tryDispatch()
}
