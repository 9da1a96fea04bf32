package runners

import (
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// OpenLoop drives a scheme with timed arrivals instead of a pre-built batch:
// tasks[i] enters the system at Arrivals[i] virtual cycles whether or not
// the scheme is ready for it — the open-loop serving model, where offered
// load is an external fact and the system's only choices are to queue, serve
// or shed. Build Arrivals with a serve.Generator.
type OpenLoop struct {
	// Arrivals holds one nondecreasing virtual-cycle instant per task.
	Arrivals []sim.Time

	// AdmitTask, when non-nil, is consulted once per task at the scheme's
	// presentation point with the task's index, the current virtual time and
	// the number of admitted-but-uncompleted tasks; a false return drops the
	// task. The index lets a class-aware layer (internal/tenancy) key the
	// decision on which tenant the task belongs to. Under Pagoda's
	// multi-spawner host path calls are NOT guaranteed to arrive in
	// task-index order, only at nondecreasing per-spawner instants —
	// implementations must key on the index argument, never on call order.
	AdmitTask func(ti int, now sim.Time, inFlight int) bool

	// Trace, when enabled, receives two spans per completed task — cat
	// "wait" (submit to service start) and "service" (start to done) — on a
	// per-scheme track, the open-loop latency decomposition in profiler form.
	Trace *trace.Tracer
}

// runOpenLoop is every scheme's RunOpenLoop: the fleet driver on one
// round-robin node, with ol.AdmitTask as that node's admission hook. Serve
// spans land on the "serve-<scheme>" track rather than the fleet's per-node
// track.
func runOpenLoop(tasks []workloads.TaskDef, ol OpenLoop, cfg Config,
	scheme string, newNode newNodeFunc) (Result, []serve.Record) {
	co := ClusterOpenLoop{Arrivals: ol.Arrivals, AdmitTask: ol.AdmitTask}
	res, cr := runFleet(tasks, co, cfg, scheme, newNode)
	addServeSpans(ol.Trace, "serve-"+scheme, cr.Recs, cr.NodeOf, 0)
	return res, cr.Recs
}
