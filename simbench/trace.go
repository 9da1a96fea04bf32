package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// A span is one timed call from the benchmark into a layer of the program:
// the layer, what was called, host start and end in nanoseconds since the
// tracer's epoch, and the index of the span that caused it (-1 for none).
type span struct {
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tally accumulates the host time and call count of one fine-grained
// boundary (a kernel, a DeviceCtx op, an admission or routing decision).
// Those boundaries are crossed millions of times, so they are kept as sums
// instead of spans.
type tally struct {
	Calls int64
	Ns    int64
}

func (t *tally) add(d time.Duration) { t.Calls++; t.Ns += int64(d) }

// counters is everything the tracer sums across a run. Callback self time
// (kernel self, admission, routing, scaling) runs inside a Scheme call, so
// subtracting it from the call's span leaves the device model's self time.
type counters struct {
	Kernel  tally // TaskDef.Kernel, self time: span minus its DeviceCtx ops
	Ops     tally // DeviceCtx cost and sync calls (each a possible proc park)
	Admit   tally // tenancy Admission.AdmitTask
	Pick    tally // cluster Policy.Pick
	Target  tally // autoscale Policy.Target
	Make    tally // workloads Benchmark.Make
	Arrival tally // serve Generator.Times
	Merge   tally // tenancy.Merge
	Summary tally // serve.Summarize
	Classes tally // tenancy.SummarizeClasses
	Check   tally // workloads TaskDef.Check
}

func (c counters) callbackNs() int64 {
	return c.Kernel.Ns + c.Admit.Ns + c.Pick.Ns + c.Target.Ns
}

// tracer times calls into the program from outside it. With on == false it
// wraps nothing and records nothing: call and the wrap helpers pass straight
// through, so the untraced run executes the program exactly as a user would.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	cur   int // index of the open span, -1 at top level
	c     counters
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now(), cur: -1} }

// call runs fn as one coarse span on the given layer and returns its
// duration, which is also summed into t (nil for calls only the span list
// records). Untraced, it returns 0.
func (tr *tracer) call(layer, name string, t *tally, fn func()) int64 {
	if !tr.on {
		fn()
		return 0
	}
	idx := len(tr.spans)
	tr.spans = append(tr.spans, span{Layer: layer, Name: name, Parent: tr.cur})
	parent := tr.cur
	tr.cur = idx
	start := time.Now()
	fn()
	end := time.Now()
	tr.cur = parent
	tr.spans[idx].Start = start.Sub(tr.epoch).Nanoseconds()
	tr.spans[idx].End = end.Sub(tr.epoch).Nanoseconds()
	if t != nil {
		t.add(end.Sub(start))
	}
	return end.Sub(start).Nanoseconds()
}

// makeTasks is Benchmark.Make as a workloads-layer span.
func (tr *tracer) makeTasks(b workloads.Benchmark, opt workloads.Options) []workloads.TaskDef {
	var tasks []workloads.TaskDef
	tr.call("workloads", "Make/"+b.Name, &tr.c.Make, func() { tasks = b.Make(opt) })
	return tasks
}

// times is Generator.Times as a serve-layer span.
func (tr *tracer) times(name string, n int, times func(int) []sim.Time) []sim.Time {
	var at []sim.Time
	tr.call("serve", "Times/"+name, &tr.c.Arrival, func() { at = times(n) })
	return at
}

// wrapTasks returns copies of tasks whose kernels time themselves and hand
// the kernel a DeviceCtx that times its cost and sync ops. Everything else
// in each TaskDef is shared with the original.
func (tr *tracer) wrapTasks(tasks []workloads.TaskDef) []workloads.TaskDef {
	if !tr.on {
		return tasks
	}
	out := make([]workloads.TaskDef, len(tasks))
	for i := range tasks {
		td := tasks[i]
		kernel := td.Kernel
		td.Kernel = func(c workloads.DeviceCtx) {
			tc := &tracedCtx{DeviceCtx: c, ops: &tr.c.Ops}
			start := time.Now()
			kernel(tc)
			tr.c.Kernel.add(time.Since(start) - time.Duration(tc.ns))
		}
		out[i] = td
	}
	return out
}

// tracedCtx is the DeviceCtx a traced kernel sees. Cost and sync ops are
// timed (a park inside one covers whatever other kernels the engine ran
// meanwhile, which is why kernel self time subtracts them); geometry,
// ForEachLane and the shared-memory accessors pass through untimed, so lane
// bodies count as kernel time.
type tracedCtx struct {
	workloads.DeviceCtx
	ops *tally
	ns  int64
}

func (c *tracedCtx) done(start time.Time) {
	d := time.Since(start)
	c.ns += int64(d)
	c.ops.add(d)
}

func (c *tracedCtx) Compute(cycles float64) { s := time.Now(); c.DeviceCtx.Compute(cycles); c.done(s) }
func (c *tracedCtx) GlobalRead(n int)       { s := time.Now(); c.DeviceCtx.GlobalRead(n); c.done(s) }
func (c *tracedCtx) GlobalWrite(n int)      { s := time.Now(); c.DeviceCtx.GlobalWrite(n); c.done(s) }
func (c *tracedCtx) SharedRead(n int)       { s := time.Now(); c.DeviceCtx.SharedRead(n); c.done(s) }
func (c *tracedCtx) SharedWrite(n int)      { s := time.Now(); c.DeviceCtx.SharedWrite(n); c.done(s) }
func (c *tracedCtx) SyncBlock()             { s := time.Now(); c.DeviceCtx.SyncBlock(); c.done(s) }

// wrapAdmit times a tenancy admission callback.
func (tr *tracer) wrapAdmit(admit func(int, sim.Time, int) bool) func(int, sim.Time, int) bool {
	if !tr.on {
		return admit
	}
	return func(ti int, now sim.Time, inFlight int) bool {
		start := time.Now()
		ok := admit(ti, now, inFlight)
		tr.c.Admit.add(time.Since(start))
		return ok
	}
}

// tracedPick times a cluster routing policy.
type tracedPick struct {
	cluster.Policy
	t *tally
}

func (p tracedPick) Pick(now sim.Time, task cluster.Task, nodes []cluster.NodeView) int {
	start := time.Now()
	n := p.Policy.Pick(now, task, nodes)
	p.t.add(time.Since(start))
	return n
}

func (tr *tracer) wrapPick(p cluster.Policy) cluster.Policy {
	if !tr.on {
		return p
	}
	return tracedPick{Policy: p, t: &tr.c.Pick}
}

// tracedTarget times an autoscale policy's decisions.
type tracedTarget struct {
	autoscale.Policy
	t *tally
}

func (p tracedTarget) Target(s autoscale.Signals) int {
	start := time.Now()
	n := p.Policy.Target(s)
	p.t.add(time.Since(start))
	return n
}

func (tr *tracer) wrapScaler(mk func() autoscale.Policy) func() autoscale.Policy {
	if !tr.on {
		return mk
	}
	return func() autoscale.Policy { return tracedTarget{Policy: mk(), t: &tr.c.Target} }
}

// writeTrace saves the set-up and run-phase spans and tallies under dir as
// <workload>-seed<seed>.json, for reading after the run.
func writeTrace(dir, workload string, seed int64, setup, run *tracer) error {
	type section struct {
		Spans   []span   `json:"spans"`
		Tallies counters `json:"tallies"`
	}
	data, err := json.Marshal(struct {
		Workload string  `json:"workload"`
		Seed     int64   `json:"seed"`
		Setup    section `json:"setup"`
		Run      section `json:"run"`
	}{workload, seed, section{setup.spans, setup.c}, section{run.spans, run.c}})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed)), data, 0o644)
}
