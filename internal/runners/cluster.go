package runners

import (
	"fmt"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// ClusterOpenLoop generalizes OpenLoop over a fleet: N identical devices
// (each with its own PCIe bus and scheme instance) share one engine and one
// virtual clock, a front-end dispatcher consumes the arrival stream, and a
// cluster.Policy routes each task to a node. Each node consults one
// admission hook at the scheme's own presentation point — at the spawn
// point for Pagoda/HyperQ, at arrival for GeMTC. The open loop is this
// driver on one round-robin node.
type ClusterOpenLoop struct {
	// Arrivals holds one nondecreasing virtual-cycle instant per task.
	Arrivals []sim.Time

	// Classes optionally assigns each task a workload class for
	// class-affine dispatch; nil means a single class.
	Classes []int

	// Nodes is the fleet size; 0 means 1.
	Nodes int

	// Policy routes arrivals; nil means round-robin. Policies are stateful —
	// hand each run a freshly constructed one.
	Policy cluster.Policy

	// Admit builds one fresh admission rule per node (serve.BoundedQueue's
	// and serve.TokenBucket's Admit methods satisfy the returned signature);
	// nil admits everything. Fresh-per-node matters for stateful rules like
	// the token bucket.
	Admit func() func(now sim.Time, inFlight int) bool

	// AdmitTask, when non-nil, takes precedence over Admit on every node:
	// one fleet-wide class-aware admission layer (internal/tenancy) shared
	// by all nodes, so per-class contracts and token buckets police the
	// fleet's aggregate intake rather than N independent copies. Nodes call
	// it at their own presentation point with node-local inFlight, exactly
	// where they would consult Admit.
	AdmitTask func(ti int, now sim.Time, inFlight int) bool

	// Scaler, when set, sizes the fleet instead of Nodes. An elastic config
	// (Max > Min) lets nodes warm up, drain and retire under its scaling
	// policy, and the run reports an autoscale.Outcome in ClusterRun.Scale.
	// Min == Max is a fixed fleet of Min nodes with no controller —
	// bit-identical to Nodes = Min, pinned by test.
	Scaler *autoscale.Config

	// Trace, when enabled, receives each completed task's wait/service spans
	// on a per-node track ("node00/serve-pagoda", ...). Track names are
	// zero-padded so lexicographic track ordering is node ordering.
	Trace *trace.Tracer
}

// nodeAdmit resolves one node's admission hook: the fleet-wide AdmitTask,
// else a fresh Admit rule, else nil (admit everything).
func (co ClusterOpenLoop) nodeAdmit() func(int, sim.Time, int) bool {
	if co.AdmitTask != nil {
		return co.AdmitTask
	}
	if co.Admit == nil {
		return nil
	}
	admit := co.Admit()
	return func(_ int, now sim.Time, inFlight int) bool { return admit(now, inFlight) }
}

// ClusterRun is the fleet-level outcome alongside the aggregate Result: the
// exact per-task records, each task's node assignment, and the per-node
// accounting the conservation invariant is checked against.
type ClusterRun struct {
	Recs   []serve.Record
	NodeOf []int              // node index per task
	Views  []cluster.NodeView // final per-node counters
	Names  []string           // per-node track/display names

	// Scale is the autoscaler's outcome — scale events, node lifecycle
	// spans and the node-seconds cost ledger. Nil for fixed-fleet runs.
	Scale *autoscale.Outcome
}

// CheckConservation verifies submitted = done + dropped per node and
// fleet-wide. Harness cells panic on an error so a leaking fleet can never
// publish numbers.
func (cr ClusterRun) CheckConservation() error {
	return cluster.CheckConservation(cr.Views, len(cr.Recs))
}

// NodeRecords returns the records of the tasks routed to one node, in task
// order — the per-node latency population.
func (cr ClusterRun) NodeRecords(node int) []serve.Record {
	var out []serve.Record
	for ti, n := range cr.NodeOf {
		if n == node {
			out = append(out, cr.Recs[ti])
		}
	}
	return out
}

// nodeTrack names one node's serve-span track; zero-padding keeps
// lexicographic order equal to node order for fleets up to 100 nodes.
func nodeTrack(node int, scheme string) string {
	return fmt.Sprintf("node%02d/serve-%s", node, scheme)
}

// addServeSpans exports one node's wait/service decomposition onto track:
// two spans per completed task routed to node, named by global task index
// (deterministic order).
func addServeSpans(tr *trace.Tracer, track string, recs []serve.Record, nodeOf []int, node int) {
	if !tr.Enabled() {
		return
	}
	for ti, r := range recs {
		if nodeOf[ti] != node || r.Dropped {
			continue
		}
		tr.Add(trace.Span{Name: trace.SpanName("wait", int64(ti)), Cat: "wait",
			Track: track, Start: r.Submit, End: r.Start})
		tr.Add(trace.Span{Name: trace.SpanName("service", int64(ti)), Cat: "service",
			Track: track, Start: r.Start, End: r.Done})
	}
}

// node is one scheme instance behind the dispatcher — the only serving
// implementation of each scheme. Beyond cluster.Node it exposes the embedded
// ledger base (so the driver can install admission and completion hooks)
// and its device metrics at the run's end.
type node interface {
	cluster.Node
	base() *nodeBase
	devMetrics(end sim.Time) (occupancy, issueUtil float64)
}

// newNodeFunc builds one scheme node named name on the shared engine: a
// device, bus and context plus the scheme's host processes. The node reads
// tasks and stamps Start/Done/Dropped into recs.
type newNodeFunc func(eng *sim.Engine, name string, tasks []workloads.TaskDef, recs []serve.Record, cfg Config) node

// runFleet is the one serving driver behind every scheme's RunOpenLoop and
// RunCluster. Every fleet is an autoscale.Fleet: a fixed one is the
// Min == Max case, built up front in id order with no controller. An
// elastic one also gets a controller process that steps it at the scaler's
// interval. Every arrival is routed through one cluster.Dispatcher, and
// Result and ClusterRun are assembled from the records and nodes.
// Scale-out provisions a node whose engine processes spawn mid-run — legal
// on the event engine, same mechanism as HyperQ's waiter procs — and
// scale-in reuses Node.Close, so draining is the scheme's own drain path.
func runFleet(tasks []workloads.TaskDef, co ClusterOpenLoop, cfg Config,
	scheme string, newNode newNodeFunc) (Result, ClusterRun) {
	size := max(co.Nodes, 1)
	scaler := autoscale.Config{Min: size, Max: size}
	if co.Scaler != nil {
		scaler = *co.Scaler
	}
	eng := sim.New()
	recs := make([]serve.Record, len(tasks))
	var nodes []node
	var fleet *autoscale.Fleet
	fleet, err := autoscale.NewFleet(eng, scaler, func(id int) cluster.Node {
		n := newNode(eng, fmt.Sprintf("node%02d", id), tasks, recs, cfg)
		b := n.base()
		b.admit = co.nodeAdmit()
		if scaler.Enabled() {
			// Completions feed the scaler's rolling-p99 signal; recs[ti] is
			// fully stamped before noteDone fires (the noteDone contract).
			b.onDone = func(ti int) { fleet.NoteLatency(recs[ti].Done - recs[ti].Submit) }
		}
		nodes = append(nodes, n)
		return n
	})
	if err != nil {
		panic(fmt.Sprintf("runners: %v", err))
	}
	if scaler.Enabled() {
		eng.Spawn("autoscaler", func(p *sim.Proc) {
			for !fleet.Closed() {
				p.Sleep(fleet.Interval())
				fleet.Step(p.Now())
			}
		})
	}

	nodeOf := make([]int, len(tasks))
	cluster.Dispatcher{Arrivals: co.Arrivals, Classes: co.Classes, Policy: co.Policy, Fleet: fleet}.
		Spawn(eng, recs, nodeOf)
	end := eng.Run()

	lats := make([]sim.Time, 0, len(recs))
	for _, r := range recs {
		if !r.Dropped {
			lats = append(lats, r.Latency())
		}
	}
	res := Result{Elapsed: end, Tasks: len(lats)}
	res.fillLatencies(lats)
	// Views cover every node ever built, retired ones included, which keeps
	// routed = done + dropped checkable across scale events.
	cr := ClusterRun{Recs: recs, NodeOf: nodeOf,
		Views: make([]cluster.NodeView, len(nodes)), Names: make([]string, len(nodes))}
	var occ, iu float64
	for i, n := range nodes {
		cr.Views[i] = n.View()
		cr.Names[i] = nodeTrack(i, scheme)
		o, u := n.devMetrics(end)
		occ += o
		iu += u
		addServeSpans(co.Trace, cr.Names[i], recs, nodeOf, i)
	}
	res.Occupancy = occ / float64(len(nodes))
	res.IssueUtil = iu / float64(len(nodes))
	if scaler.Enabled() {
		fleet.Finish(end)
		out := fleet.Outcome()
		cr.Scale = &out
	}
	return res, cr
}

// runBatch is the closed loop of the schemes whose host path is their node:
// one node on a fresh engine, with every task submitted in index order and
// the node closed before the clock starts. It returns the node, its records
// and a Result holding Elapsed and the node's device metrics; the caller
// adds its scheme's latency notion.
func runBatch(tasks []workloads.TaskDef, cfg Config, newNode newNodeFunc) (node, []serve.Record, Result) {
	eng := sim.New()
	recs := make([]serve.Record, len(tasks))
	n := newNode(eng, "batch", tasks, recs, cfg)
	for ti := range tasks {
		n.Submit(ti)
	}
	n.Close()
	end := eng.Run()
	occ, iu := n.devMetrics(end)
	return n, recs, Result{Elapsed: end, Occupancy: occ, IssueUtil: iu}
}

// nodeBase carries the accounting and admission state every node shares.
// All fields are touched only under the engine baton.
type nodeBase struct {
	name      string
	view      cluster.NodeView
	admit     func(ti int, now sim.Time, inFlight int) bool
	onDone    func(ti int) // completion hook (elastic fleets)
	admitted  int
	completed int
	closed    bool
}

func (n *nodeBase) Name() string           { return n.name }
func (n *nodeBase) View() cluster.NodeView { return n.view }
func (n *nodeBase) base() *nodeBase        { return n }

// admitNow consults the node's admission hook, if any, with the node-local
// in-flight count.
func (n *nodeBase) admitNow(ti int, t sim.Time) bool {
	return n.admit == nil || n.admit(ti, t, n.admitted-n.completed)
}

// noteDone records one task completion in the ledger; the scheme node must
// have stamped recs[ti].Done first, so the hook sees final records.
func (n *nodeBase) noteDone(ti int) {
	n.completed++
	n.view.Done++
	if n.onDone != nil {
		n.onDone(ti)
	}
}

// fifo is a node's host-side task-index queue. Popping advances a head
// index instead of reslicing, and a drained queue rewinds onto its own
// backing array, so a queue that keeps emptying under light load stops
// reallocating on every push.
type fifo struct {
	buf  []int
	head int
}

func (q *fifo) push(ti int) { q.buf = append(q.buf, ti) }
func (q *fifo) len() int    { return len(q.buf) - q.head }

// take removes and returns the oldest k queued indexes. The returned slice
// aliases the queue's storage and is valid only until the next push.
func (q *fifo) take(k int) []int {
	out := q.buf[q.head : q.head+k]
	q.head += k
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return out
}

func (q *fifo) pop() int { return q.take(1)[0] }
