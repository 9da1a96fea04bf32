package runners

import (
	"fmt"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// numStreams is the HyperQ stream count (CUDA_DEVICE_MAX_CONNECTIONS=32)
// every kernel-per-task host path spreads its tasks over.
const numStreams = 32

// RunHyperQ executes each task as its own CUDA kernel over 32 streams, the
// paper's CUDA-HyperQ baseline (CUDA_DEVICE_MAX_CONNECTIONS=32). Each task's
// stream carries its input copy, kernel and output copy; kernels from
// different streams overlap up to the HyperQ connection limit, but the
// hardware schedules at threadblock granularity and a narrow task's kernel
// occupies very little of the device.
func RunHyperQ(tasks []workloads.TaskDef, cfg Config) Result {
	return runKernelPerTask(tasks, cfg, gpu.Oversub{})
}

// runKernelPerTask is the shared kernel-per-task closed-loop engine: HyperQ
// runs it on the static device (zero Oversub), zorua on a virtualized one —
// the two schemes differ only in how the device admits threadblocks.
func runKernelPerTask(tasks []workloads.TaskDef, cfg Config, ov gpu.Oversub) Result {
	sys := newSystem(cfg)
	if ov.Enabled() {
		sys.dev.Virtualize(ov)
	}
	streams := make([]*cuda.Stream, numStreams)
	for i := range streams {
		streams[i] = sys.ctx.NewStream()
	}

	parts := splitRoundRobin(tasks, spawners)

	lats := make([]sim.Time, 0, len(tasks))
	finishedSpawners := 0
	var endTime sim.Time

	for s := 0; s < spawners; s++ {
		s := s
		sys.eng.Spawn(fmt.Sprintf("hq-host%d", s), func(p *sim.Proc) {
			var handles []*cuda.KernelHandle
			var spawnTimes []sim.Time
			for _, ti := range parts[s] {
				td := &tasks[ti]
				stream := streams[ti%numStreams]
				spawnTimes = append(spawnTimes, sys.eng.Now())
				if cfg.CopyData && td.InBytes > 0 {
					stream.MemcpyH2D(p, td.InBytes, nil)
				}
				h := stream.Launch(p, hyperqSpec(td))
				if cfg.CopyData && td.OutBytes > 0 {
					stream.MemcpyD2H(p, td.OutBytes, nil)
				}
				handles = append(handles, h)
			}
			for i, h := range handles {
				h.Wait(p)
				lats = append(lats, sys.eng.Now()-spawnTimes[i])
			}
			for _, st := range streams {
				st.Sync(p)
			}
			finishedSpawners++
			if finishedSpawners == spawners {
				endTime = sys.eng.Now()
			}
		})
	}
	sys.eng.Run()

	m := sys.dev.Metrics()
	r := Result{
		Elapsed:   endTime,
		Occupancy: m.AvgOccupancy,
		IssueUtil: m.IssueUtil,
		Tasks:     len(lats),
	}
	r.fillLatencies(lats)
	return r
}

// hyperqSpec builds the per-task kernel launch.
func hyperqSpec(td *workloads.TaskDef) gpu.LaunchSpec {
	var sharedPerTB [][]byte
	if td.SharedMem > 0 {
		sharedPerTB = make([][]byte, td.Blocks)
		for b := range sharedPerTB {
			sharedPerTB[b] = make([]byte, td.SharedMem)
		}
	}
	regs := td.Regs
	if regs <= 0 {
		regs = 32
	}
	return gpu.LaunchSpec{
		Name:          "hq-" + td.Name,
		GridDim:       td.Blocks,
		BlockThreads:  td.Threads,
		SharedPerTB:   td.SharedMem,
		RegsPerThread: regs,
		Fn: func(c *gpu.Ctx) {
			var shared []byte
			if sharedPerTB != nil {
				shared = sharedPerTB[c.BlockIdx]
			}
			td.Kernel(&warpAdapter{
				g:        c,
				threads:  td.Threads,
				blocks:   td.Blocks,
				blockIdx: c.BlockIdx,
				warpInBl: c.WarpInBlock,
				shared:   shared,
			})
		},
	}
}

// hyperqNode is the kernel-per-task serving host path — HyperQ on a static
// device, zorua on a virtualized one — behind the dispatcher. Its single host
// proc launches each admitted task as its own kernel in routing order, on
// the stream picked by its node-local sequence number (dropped tasks still
// consume a sequence slot). Start is the instant the kernel's threadblocks
// become dispatchable (stream reached it, HyperQ connection held, launch
// overhead paid); Done is the end of the task's output copy — the
// stream-FIFO point where the host could consume the result.
type hyperqNode struct {
	nodeBase
	sys     *system
	recs    []serve.Record
	tasks   []workloads.TaskDef
	cfg     Config
	streams []*cuda.Stream
	queue   fifo
	seq     int // node-local arrival sequence, advanced per pop
	more    sim.Signal
	doneSig sim.Signal
}

func newHyperQNode(eng *sim.Engine, name string, tasks []workloads.TaskDef,
	recs []serve.Record, cfg Config) node {
	return newKernelPerTaskNode(eng, name, tasks, recs, cfg, gpu.Oversub{})
}

// newKernelPerTaskNode builds one kernel-per-task node: a static device for
// HyperQ (zero Oversub), a virtualized one for zorua.
func newKernelPerTaskNode(eng *sim.Engine, name string, tasks []workloads.TaskDef,
	recs []serve.Record, cfg Config, ov gpu.Oversub) *hyperqNode {
	n := &hyperqNode{
		nodeBase: nodeBase{name: name},
		sys:      newSystemOn(eng, cfg),
		recs:     recs,
		tasks:    tasks,
		cfg:      cfg,
		streams:  make([]*cuda.Stream, numStreams),
	}
	if ov.Enabled() {
		n.sys.dev.Virtualize(ov)
	}
	for i := range n.streams {
		n.streams[i] = n.sys.ctx.NewStream()
	}
	eng.Spawn(name+"-host", n.host)
	return n
}

func (n *hyperqNode) Submit(ti int) {
	n.view.Routed++
	n.queue.push(ti)
	n.more.Broadcast()
}

func (n *hyperqNode) Close() {
	n.closed = true
	n.more.Broadcast()
}

func (n *hyperqNode) finish(ti int) {
	n.recs[ti].Done = n.sys.eng.Now()
	n.noteDone(ti)
	n.doneSig.Broadcast()
}

func (n *hyperqNode) host(p *sim.Proc) {
	for {
		for n.queue.len() == 0 && !n.closed {
			n.more.Wait(p)
		}
		if n.queue.len() == 0 {
			break
		}
		ti := n.queue.pop()
		seq := n.seq
		n.seq++
		td := &n.tasks[ti]
		if !n.admitNow(ti, p.Now()) {
			n.recs[ti].Dropped = true
			n.view.Dropped++
			continue
		}
		n.admitted++
		n.view.Started++
		stream := n.streams[seq%numStreams]
		if n.cfg.CopyData && td.InBytes > 0 {
			stream.MemcpyH2D(p, td.InBytes, nil)
		}
		h := stream.LaunchHooked(p, hyperqSpec(td), func() {
			n.recs[ti].Start = n.sys.eng.Now()
		})
		if n.cfg.CopyData && td.OutBytes > 0 {
			// The output copy sits right behind its kernel in the stream FIFO;
			// its delivery is the task's completion.
			stream.MemcpyD2H(p, td.OutBytes, func() { n.finish(ti) })
		} else {
			// No output copy: completion is the kernel's own end, observed by
			// a waiter process.
			n.sys.eng.Spawn(fmt.Sprintf("%s-wait%d", n.name, ti), func(wp *sim.Proc) {
				h.Wait(wp)
				n.finish(ti)
			})
		}
	}
	for n.completed < n.admitted {
		n.doneSig.Wait(p)
	}
	for _, st := range n.streams {
		st.Sync(p)
	}
}

func (n *hyperqNode) devMetrics(sim.Time) (float64, float64) {
	m := n.sys.dev.Metrics()
	return m.AvgOccupancy, m.IssueUtil
}
