package runners

import (
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// RunGeMTC reproduces the GeMTC baseline (Krieder et al., HPDC'14): a
// SuperKernel whose threadblocks act as workers, pulling tasks from a single
// FIFO queue in device memory with global atomics, launched batch by batch.
// The three properties the paper contrasts with are modelled directly:
//
//  1. batch-based launching — no new tasks enter until the whole previous
//     batch (SuperKernel launch) completes, so a batch's makespan is its
//     longest task;
//  2. a single queue — every pop serializes on one global atomic;
//  3. threadblock granularity — each task occupies one worker threadblock
//     for its whole duration, and the SuperKernel's fixed threadblock size
//     limits occupancy.
//
// GeMTC has no shared-memory support ("the GeMTC versions do not use shared
// memory"), so tasks run with HasShared()==false regardless of their spec.
//
// The closed loop is the serving node with every task queued up front, so
// the tasks launch in index order, batch by batch. Batch semantics make a
// task available to the host only when its whole batch is (the latency
// property of Fig. 10): its latency is the batch's round trip.
func RunGeMTC(tasks []workloads.TaskDef, cfg Config) Result {
	_, recs, r := runBatch(tasks, cfg, newGeMTCNode)
	lats := make([]sim.Time, len(recs))
	for i, rec := range recs {
		lats[i] = rec.Done - rec.Start
	}
	r.Tasks = len(lats)
	r.fillLatencies(lats)
	return r
}

// gemtcBatchCap resolves the tasks-per-SuperKernel cap (default 1536).
func gemtcBatchCap(cfg Config) int {
	if cfg.GeMTCBatch <= 0 {
		return 1536
	}
	return cfg.GeMTCBatch
}

// superKernel is GeMTC's device side on one system: a fixed grid of worker
// threadblocks that pull tasks from a single FIFO queue head, one global
// atomic per pop.
type superKernel struct {
	tasks     []workloads.TaskDef
	copyData  bool
	threads   int // worker threadblock width
	workers   int // worker threadblocks per launch
	queueSite *gpu.AtomicSite
}

func newSuperKernel(sys *system, tasks []workloads.TaskDef, cfg Config) *superKernel {
	// Worker threadblock width: the evaluation uses the task's thread count
	// (uniform within a benchmark run; for mixes, the maximum).
	threads := 0
	for i := range tasks {
		threads = max(threads, tasks[i].Threads)
	}
	if threads == 0 {
		threads = 128
	}
	// Worker count: fill the device at this threadblock size.
	occ := gpu.TheoreticalOccupancy(sys.dev.Cfg, gpu.LaunchSpec{
		BlockThreads: threads, RegsPerThread: 32,
	})
	return &superKernel{
		tasks:     tasks,
		copyData:  cfg.CopyData,
		threads:   threads,
		workers:   occ.TBsPerSMM * sys.dev.Cfg.NumSMMs,
		queueSite: gpu.NewAtomicSite(sys.eng, sys.dev.Cfg.AtomicGlobalLatency),
	}
}

// run executes one batch (task indexes) on stream and returns when the
// batch is over: it copies the batch's descriptors and inputs, launches the
// SuperKernel and waits for it, then copies the outputs back.
func (k *superKernel) run(p *sim.Proc, stream *cuda.Stream, batch []int) {
	desc := 64 * len(batch)
	in := 0
	for _, ti := range batch {
		if k.copyData {
			in += k.tasks[ti].InBytes
		}
	}
	stream.MemcpyH2D(p, desc+in, nil)

	next := 0                         // single FIFO queue head
	claimed := make([]int, k.workers) // per-worker claimed batch position
	h := stream.Launch(p, gpu.LaunchSpec{
		Name:          "SuperKernel",
		GridDim:       k.workers,
		BlockThreads:  k.threads,
		RegsPerThread: 32,
		Fn: func(c *gpu.Ctx) {
			for {
				// Warp 0 of the worker pops from the single FIFO queue (one
				// serialized global atomic per pop); the whole block then
				// runs the claimed task.
				if c.WarpInBlock == 0 {
					c.AtomicGlobal(k.queueSite)
					if next < len(batch) {
						claimed[c.BlockIdx] = next
						next++
					} else {
						claimed[c.BlockIdx] = -1
					}
				}
				c.SyncBlock()
				idx := claimed[c.BlockIdx]
				if idx < 0 {
					return
				}
				// The whole worker threadblock runs the task (the
				// SuperKernel's threadblock width is the task width; under
				// MPE mixes narrow tasks are padded to it).
				k.tasks[batch[idx]].Kernel(&warpAdapter{
					g:        c,
					threads:  k.threads,
					blocks:   1,
					blockIdx: 0,
					warpInBl: c.WarpInBlock,
				})
				c.SyncBlock()
			}
		},
	})
	h.Wait(p)

	// Copy the batch's outputs back; only now is the batch over.
	out := 0
	for _, ti := range batch {
		if k.copyData {
			out += k.tasks[ti].OutBytes
		}
	}
	if out > 0 {
		stream.MemcpyD2H(p, out, nil)
		stream.Sync(p)
	}
}

// gemtcNode is GeMTC's host path: one SuperKernel device, behind the
// dispatcher when serving and with every task queued up front in the closed
// loop. Admission is consulted at the arrival instant (the host-side submit
// never blocks), admitted tasks join the node's FIFO, and a dispatch proc
// launches a SuperKernel over the queue's contents (up to the batch cap)
// whenever the device is free. A task's Start is its batch's launch and its
// Done the whole batch's end, so under sparse traffic a task pays the batch
// round-trip alone and under bursts it waits for stragglers — the latency
// property Fig. 10 contrasts with.
type gemtcNode struct {
	nodeBase
	sys     *system
	recs    []serve.Record
	tasks   []workloads.TaskDef
	cfg     Config
	pending fifo
	more    sim.Signal
}

func newGeMTCNode(eng *sim.Engine, name string, tasks []workloads.TaskDef,
	recs []serve.Record, cfg Config) node {
	n := &gemtcNode{
		nodeBase: nodeBase{name: name},
		sys:      newSystemOn(eng, cfg),
		recs:     recs,
		tasks:    tasks,
		cfg:      cfg,
	}
	eng.Spawn(name+"-dispatch", n.dispatch)
	return n
}

func (n *gemtcNode) Submit(ti int) {
	n.view.Routed++
	if !n.admitNow(ti, n.sys.eng.Now()) {
		n.recs[ti].Dropped = true
		n.view.Dropped++
		return
	}
	n.admitted++
	n.pending.push(ti)
	n.more.Broadcast()
}

func (n *gemtcNode) Close() {
	n.closed = true
	n.more.Broadcast()
}

func (n *gemtcNode) dispatch(p *sim.Proc) {
	batchCap := gemtcBatchCap(n.cfg)
	sk := newSuperKernel(n.sys, n.tasks, n.cfg)
	stream := n.sys.ctx.NewStream()
	var batch []int // the in-flight batch, reused across launches
	for {
		for n.pending.len() == 0 && !n.closed {
			n.more.Wait(p)
		}
		if n.pending.len() == 0 {
			break
		}
		b := n.pending.len()
		if b > batchCap {
			b = batchCap
		}
		batch = append(batch[:0], n.pending.take(b)...)
		n.view.Started += len(batch)
		launchStart := n.sys.eng.Now()
		sk.run(p, stream, batch)
		batchEnd := n.sys.eng.Now()
		for _, ti := range batch {
			n.recs[ti].Start = launchStart
			n.recs[ti].Done = batchEnd
			n.noteDone(ti)
		}
	}
}

func (n *gemtcNode) devMetrics(sim.Time) (float64, float64) {
	m := n.sys.dev.Metrics()
	return m.AvgOccupancy, m.IssueUtil
}
