package harness

import (
	"fmt"
	"strings"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/runners"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// serveTaskCap bounds the open-loop experiments' task count. Serving runs
// measure per-task latency under a fixed offered rate, not throughput at
// scale, so a paper-scale -tasks 32768 would multiply the sweep's wall-clock
// by 64x without changing a single percentile's meaning.
const serveTaskCap = 512

// sloCycles converts Params.SLOUs to engine cycles (1 cycle = 1 ns at
// 1 GHz), defaulting to a 1000us p99 bound.
func (p Params) sloCycles() sim.Time {
	us := p.SLOUs
	if us <= 0 {
		us = 1000
	}
	return sim.Time(us * 1e3)
}

func serveTaskCount(p Params) int {
	if p.Tasks > serveTaskCap {
		return serveTaskCap
	}
	return p.Tasks
}

// mbTasks is the task factory of the MB serving sweeps: n MB tasks of 128
// threads, generated inside each cell.
func mbTasks(n int, seed int64) func() []workloads.TaskDef {
	b, _ := workloads.ByName("MB")
	return func() []workloads.TaskDef { return b.Make(workloads.Options{Tasks: n, Threads: 128, Seed: seed}) }
}

// fleetOut is one serving cell's summary: fleet-wide latency/goodput stats,
// the final per-node ledgers, the scale outcome (nil unless the fleet was
// elastic) and the run's elapsed virtual time.
type fleetOut struct {
	st      serve.Stats
	views   []cluster.NodeView
	scale   *autoscale.Outcome
	elapsed sim.Time
}

// fleetCell enqueues one serving simulation — a one-node open loop, a fixed
// fleet or an elastic one, as co says — and returns the slot holding its
// summary after run(). Tasks, arrivals and the routing policy are built
// inside the cell, and co's Admit factory runs there per node, so stateful
// policies stay private to the run and cells stay independent at any
// harness parallelism. Conservation is checked before any number escapes.
// Only the GPU schemes are swept: the CPU baselines have no spawn path to
// meter against virtual-time arrivals.
func fleetCell(s *sweep, mk func() []workloads.TaskDef, cfg runners.Config, sc runners.Scheme,
	slo sim.Time, gen serve.Generator, co runners.ClusterOpenLoop, mkPol func() cluster.Policy) *fleetOut {
	out := new(fleetOut)
	s.add(func() {
		tasks := mk()
		co.Arrivals = gen.Times(len(tasks))
		if mkPol != nil {
			co.Policy = mkPol()
		}
		res, cr := sc.RunCluster(tasks, co, cfg)
		if err := cr.CheckConservation(); err != nil {
			panic(fmt.Sprintf("harness: fleet leaked tasks: %v", err))
		}
		*out = fleetOut{st: serve.Summarize(cr.Recs, slo), views: cr.Views, scale: cr.Scale, elapsed: res.Elapsed}
	})
	return out
}

// imbalance is max routed / ideal share — 1.00 means a perfectly even split,
// 4.00 on a 4-node fleet means one node took everything.
func (o fleetOut) imbalance() float64 {
	total, max := 0, 0
	for _, v := range o.views {
		total += v.Routed
		if v.Routed > max {
			max = v.Routed
		}
	}
	if total == 0 {
		return 1
	}
	return float64(max) * float64(len(o.views)) / float64(total)
}

// ladder builds one capacity-ladder row: the lead cells, one p99 cell per
// rung (* marks a missed SLO) and the max sustainable rate, which it also
// returns. MaxSustainable reads the offered rates; labels name the rungs in
// the Values keys key/p99us/<label> and key/goodput/<label>. The max lands
// under key/max-rate. Callers append any trailing cells and add the row.
func (r *Report) ladder(key string, labels, offered []float64, outs []*fleetOut, lead ...string) ([]string, float64) {
	row := append([]string(nil), lead...)
	ok := make([]bool, len(outs))
	for i, o := range outs {
		ok[i] = o.st.SLOSatisfied()
		row = append(row, cond(ok[i], us(o.st.P99), us(o.st.P99)+"*"))
		r.set(fmt.Sprintf("%s/p99us/%.0f", key, labels[i]), o.st.P99/1e3)
		r.set(fmt.Sprintf("%s/goodput/%.0f", key, labels[i]), o.st.Goodput)
	}
	max := serve.MaxSustainable(offered, ok)
	r.set(key+"/max-rate", max)
	return append(row, rateCell(max)), max
}

// rateCell renders a capacity table cell: the rate, or "none" when no rung
// sustained the SLO.
func rateCell(rate float64) string { return cond(rate > 0, fmt.Sprintf("%.0f", rate), "none") }

// serveAdmissions is the admission-control cross for ServeLatency. The
// token bucket is shaped to half the offered rate (burst 32) so its effect
// is visible at every point of the ladder rather than only past saturation.
func serveAdmissions(rate float64) []struct {
	label string
	admit func() func(sim.Time, int) bool
} {
	return []struct {
		label string
		admit func() func(sim.Time, int) bool
	}{
		{"unbounded", nil},
		{"queue64", func() func(sim.Time, int) bool { return serve.BoundedQueue{Limit: 64}.Admit }},
		{"token", func() func(sim.Time, int) bool { return serve.NewTokenBucket(rate/2, 32).Admit }},
	}
}

// ServeLatency regenerates the open-loop tail-latency table: Poisson
// arrivals at a light and a heavy offered rate, crossed with the admission
// policies, for each GPU scheme. Each row reports the exact
// submit->start->done decomposition (queue wait vs service), the tail
// percentiles, drops, and goodput against the p99 SLO.
func ServeLatency(p Params) *Report {
	p = p.fill()
	n := serveTaskCount(p)
	slo := p.sloCycles()
	rates := []float64{16e3, 256e3}

	r := newReport("serve_latency",
		fmt.Sprintf("Open-loop tail latency (MB, %d tasks, Poisson arrivals, p99 SLO %.0fus)", n, slo/1e3),
		"Rate(/s)", "Policy", "Scheme", "p50(us)", "p90(us)", "p99(us)", "max(us)",
		"wait(us)", "service(us)", "drops", "goodput")
	r.setSeed(p.Seed)

	mk := mbTasks(n, p.Seed)
	cfg := p.runnerCfg()

	type latCell struct {
		rate   float64
		policy string
		sc     runners.Scheme
		out    *fleetOut
	}
	s := newSweep(p)
	var cells []latCell
	for _, rate := range rates {
		gen := serve.Poisson{Rate: rate, Seed: p.Seed}
		for _, adm := range serveAdmissions(rate) {
			for _, sc := range p.gpuSchemes() {
				cells = append(cells, latCell{rate, adm.label, sc,
					fleetCell(s, mk, cfg, sc, slo, gen, runners.ClusterOpenLoop{Admit: adm.admit}, nil)})
			}
		}
	}
	s.run()

	for _, c := range cells {
		st := c.out.st
		r.addRow(fmt.Sprintf("%.0f", c.rate), c.policy, c.sc.Display,
			us(st.P50), us(st.P90), us(st.P99), us(st.Max),
			us(st.MeanWait), us(st.MeanService),
			fmt.Sprint(st.Dropped), f2(st.Goodput))
		key := fmt.Sprintf("%s/%s/%.0f", c.sc.Key, c.policy, c.rate)
		r.set(key+"/p99us", st.P99/1e3)
		r.set(key+"/waitus", st.MeanWait/1e3)
		r.set(key+"/drops", float64(st.Dropped))
		r.set(key+"/goodput", st.Goodput)
	}
	r.note("goodput = tasks completed within the %.0fus p99 SLO / tasks offered: drops and SLO misses both count against it", slo/1e3)
	r.note("wait is submit-to-service-start (queueing), service is start-to-done; the split is also exported as trace spans by the open-loop runners")
	return r
}

// ServeCapacity regenerates the SLO-bounded capacity sweep: it walks the
// offered-load ladder under unbounded admission and reports each scheme's
// max sustainable rate — the highest rate whose whole prefix met the p99 SLO
// with no drops (serve.MaxSustainable). This is the serving-facing headline
// of the paper's thesis: a faster spawn path holds the latency knee at a
// higher offered load.
func ServeCapacity(p Params) *Report {
	p = p.fill()
	n := serveTaskCount(p)
	slo := p.sloCycles()
	rates := serve.DefaultRates()

	header := []string{"Scheme"}
	for _, rate := range rates {
		header = append(header, fmt.Sprintf("%.0f/s", rate))
	}
	header = append(header, "max-rate(/s)")
	r := newReport("serve_capacity",
		fmt.Sprintf("SLO-bounded capacity (MB, %d tasks, Poisson arrivals; p99 us per offered rate, * = %.0fus p99 SLO missed)", n, slo/1e3),
		header...)
	r.setSeed(p.Seed)

	mk := mbTasks(n, p.Seed)
	cfg := p.runnerCfg()

	s := newSweep(p)
	schemes := p.gpuSchemes()
	cells := make(map[string][]*fleetOut)
	for _, sc := range schemes {
		for _, rate := range rates {
			gen := serve.Poisson{Rate: rate, Seed: p.Seed}
			cells[sc.Key] = append(cells[sc.Key], fleetCell(s, mk, cfg, sc, slo, gen, runners.ClusterOpenLoop{}, nil))
		}
	}
	s.run()

	maxRates := make(map[string]float64)
	for _, sc := range schemes {
		row, max := r.ladder(sc.Key, rates, rates, cells[sc.Key], sc.Display)
		maxRates[sc.Key] = max
		r.addRow(row...)
	}
	r.note("max sustainable rate under the %.0fus p99 SLO: %s (highest ladder rate whose whole prefix met the SLO with no drops)",
		slo/1e3, capacitySummary(schemes, maxRates))
	return r
}

// capacitySummary renders every swept scheme's headline max-rate in sweep
// order. Derived from the scheme list — not a hand-written format string —
// so a newly registered scheme cannot be silently missing from the summary.
func capacitySummary(schemes []runners.Scheme, maxRates map[string]float64) string {
	parts := make([]string, len(schemes))
	for i, sc := range schemes {
		parts[i] = fmt.Sprintf("%s %s", sc.Display, rateStr(maxRates[sc.Key]))
	}
	return strings.Join(parts, ", ")
}

func rateStr(rate float64) string {
	if rate <= 0 {
		return "none"
	}
	return fmt.Sprintf("%.0f/s", rate)
}
