package runners

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/pcie"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// RunPagoda executes the task stream on the Pagoda runtime: the serving node
// with every task queued before the clock starts. Spawner threads copy each
// task's input asynchronously and call taskSpawn immediately (the
// continuous-spawning model of Fig. 1a); output copies are enqueued as the
// host observes completions through the lazy copy-back protocol; waitAll
// drains the tail.
func RunPagoda(tasks []workloads.TaskDef, cfg Config) Result {
	n, _, r := runBatch(tasks, cfg, newPagodaNode)
	rt := n.(*pagodaNode).rt
	r.Tasks = rt.Stats().Completed
	r.fillLatencies(rt.Latencies())
	return r
}

// pagodaSpec builds the TaskSpawn request for one task.
func pagodaSpec(td *workloads.TaskDef) core.TaskSpec {
	return core.TaskSpec{
		Threads:   td.Threads,
		Blocks:    td.Blocks,
		SharedMem: td.SharedMem,
		Sync:      td.Sync,
		ArgBytes:  td.ArgBytes,
		Kernel:    func(tc *core.TaskCtx) { td.Kernel(tc) },
	}
}

// pagodaNode is Pagoda's host path, behind the dispatcher when serving and
// with every task queued up front in the closed loop. Its feeder procs are
// the paper's spawner threads: tasks are dealt to feeders round-robin in
// routing order, each feeder consults admission and spawns continuously
// through its own stream, and the last feeder to drain shuts the runtime
// down. Per-task Start is the instant the scheduler warp picked the task up
// and Done its device-side completion, both observed through the runtime's
// OnTaskDone hook rather than host polling.
type pagodaNode struct {
	nodeBase
	sys     *system
	rt      *core.Runtime
	recs    []serve.Record
	tasks   []workloads.TaskDef
	cfg     Config
	queues  []fifo       // per-feeder FIFO, dealt by routing order
	more    []sim.Signal // one wake signal per feeder
	streams []*cuda.Stream

	idxOf      map[core.TaskID]int
	outBytes   map[core.TaskID]int
	finished   int
	allSpawned bool
}

func newPagodaNode(eng *sim.Engine, name string, tasks []workloads.TaskDef,
	recs []serve.Record, cfg Config) node {
	n := &pagodaNode{
		nodeBase: nodeBase{name: name},
		sys:      newSystemOn(eng, cfg),
		recs:     recs,
		tasks:    tasks,
		cfg:      cfg,
		idxOf:    map[core.TaskID]int{},
		outBytes: map[core.TaskID]int{},
	}
	ccfg := core.DefaultConfig()
	if cfg.PagodaBatching {
		ccfg.Batching = true
		if cfg.GeMTCBatch > 0 {
			ccfg.BatchSize = cfg.GeMTCBatch // "same batch size as GeMTC's"
		}
	}
	n.rt = core.NewRuntime(n.sys.ctx, ccfg)
	n.rt.OnTaskDone = func(id core.TaskID, _, sched, end sim.Time) {
		ti, ok := n.idxOf[id]
		if !ok {
			return
		}
		delete(n.idxOf, id)
		n.recs[ti].Start = sched
		n.recs[ti].Done = end
		n.noteDone(ti)
	}

	// Output copies chain off host-observed completions: a collector polls
	// the TaskTable so completions (and therefore D2H transfers) are
	// observed while compute is still in flight — the Fig. 1a pattern of a
	// nested wait()+memcpy task per spawned task.
	if cfg.CopyData {
		n.rt.OnHostObservedDone = func(id core.TaskID) {
			if b := n.outBytes[id]; b > 0 {
				delete(n.outBytes, id)
				n.sys.bus.TransferAsync(pcie.DeviceToHost, b, nil)
			}
		}
		eng.Spawn(name+"-collector", func(p *sim.Proc) {
			for {
				p.Sleep(64_000) // 64 us polling cadence
				if n.allSpawned && len(n.outBytes) == 0 {
					return
				}
				n.rt.PollCompletions(p)
			}
		})
	}

	n.queues = make([]fifo, spawners)
	n.more = make([]sim.Signal, spawners)
	n.streams = make([]*cuda.Stream, spawners)
	for f := 0; f < spawners; f++ {
		f := f
		n.streams[f] = n.sys.ctx.NewStream()
		eng.Spawn(fmt.Sprintf("%s-feeder%d", name, f), func(p *sim.Proc) { n.feed(p, f) })
	}
	return n
}

func (n *pagodaNode) Submit(ti int) {
	f := n.view.Routed % len(n.queues)
	n.view.Routed++
	n.queues[f].push(ti)
	n.more[f].Broadcast()
}

func (n *pagodaNode) Close() {
	n.closed = true
	for f := range n.more {
		n.more[f].Broadcast()
	}
}

func (n *pagodaNode) feed(p *sim.Proc, f int) {
	q := &n.queues[f]
	for {
		for q.len() == 0 && !n.closed {
			n.more[f].Wait(p)
		}
		if q.len() == 0 {
			break
		}
		ti := q.pop()
		td := &n.tasks[ti]
		if !n.admitNow(ti, p.Now()) {
			n.recs[ti].Dropped = true
			n.view.Dropped++
			continue
		}
		n.admitted++
		n.view.Started++
		if n.cfg.CopyData && td.InBytes > 0 {
			n.streams[f].MemcpyH2DPipelined(p, td.InBytes, nil)
		}
		id := n.rt.TaskSpawn(p, pagodaSpec(td))
		n.idxOf[id] = ti
		if n.cfg.CopyData && td.OutBytes > 0 {
			n.outBytes[id] = td.OutBytes
		}
	}
	n.finished++
	if n.finished < len(n.queues) {
		return
	}
	// The last feeder to finish drains the node.
	n.allSpawned = true
	n.rt.WaitAll(p)
	for _, st := range n.streams {
		st.Sync(p)
	}
	n.rt.Shutdown(p)
}

func (n *pagodaNode) devMetrics(end sim.Time) (float64, float64) {
	return n.rt.TaskWarpOccupancy(end), n.sys.dev.Metrics().IssueUtil
}
