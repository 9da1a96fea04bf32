package harness

import (
	"fmt"

	"repro/internal/autoscale"
	"repro/internal/runners"
	"repro/internal/serve"
	"repro/internal/sim"
)

// Sweep-section lifecycle: scaled to the short horizons the capped task
// counts produce, so small runs still exercise warm-up, drain and cooldown.
// The trace-replay section uses the autoscale package defaults instead — the
// production-flavored 1ms warm-up — because its horizon is p.Tasks long.
const (
	asSweepInterval = sim.Time(50_000)  // 50us control loop
	asSweepWarmup   = sim.Time(200_000) // 200us provision-to-dispatchable
	asSweepCooldown = sim.Time(100_000) // 100us between scale events
)

// Trace-replay bounds are fixed at 8..32 nodes independent of -minnodes /
// -maxnodes, so the node-seconds-per-Mtask headline is comparable across
// invocations (and pinnable by pagodaperf).
const (
	asTraceMin = 8
	asTraceMax = 32
)

// nodeSeconds prices the cell: the scaler's provision-to-retire ledger, or —
// when scaling was disabled (min = max) and no outcome exists — the fixed
// fleet's size times the run's elapsed time.
func (o fleetOut) nodeSeconds() float64 {
	if o.scale != nil {
		return o.scale.NodeSeconds()
	}
	return float64(len(o.views)) * o.elapsed / 1e9
}

func (o fleetOut) nodeSecPerMTask() float64 {
	if o.st.Completed <= 0 {
		return 0
	}
	return o.nodeSeconds() / (float64(o.st.Completed) / 1e6)
}

func (o fleetOut) outsInsPeak() (int, int, int) {
	if o.scale == nil {
		return 0, 0, len(o.views)
	}
	return o.scale.ScaleOuts, o.scale.ScaleIns, o.scale.Peak
}

// scalePolicies resolves the scaling-policy axis: every registered policy,
// or just the one p.Autoscale names (the CLI validates the name; an unknown
// one panics here like an unknown routing policy would).
func (p Params) scalePolicies() []string {
	if p.Autoscale == "" {
		return autoscale.PolicyNames()
	}
	if _, err := autoscale.NewPolicy(p.Autoscale, autoscale.DefaultTuning()); err != nil {
		panic(err)
	}
	return []string{p.Autoscale}
}

// mkScalerFor builds the scaler config for one (policy, tuning) sweep point
// over the [min, max] fleet bounds. Cells share it read-only: each run copies
// the config and calls its Policy factory once.
func mkScalerFor(policy string, tu autoscale.Tuning, min, max int,
	interval, warmup, cooldown sim.Time) *autoscale.Config {
	mk, err := autoscale.NewPolicy(policy, tu)
	if err != nil {
		panic(err)
	}
	return &autoscale.Config{Min: min, Max: max, Policy: mk,
		Interval: interval, Warmup: warmup, Cooldown: cooldown}
}

// ClusterAutoscale regenerates the fleet-elasticity sweep: scaler
// aggressiveness (gentle vs aggressive tuning of the reactive and predictive
// policies) against arrival burstiness (diurnal and flash-crowd generators)
// for every GPU scheme, plus a trace-replay section on fixed 8..32 bounds
// that replays a recorded diurnal trace at full -tasks length — the
// million-task cell — and prices each policy in node-seconds per million
// tasks served. Cost (node-sec, ns/Mtask) versus SLO (p99, goodput) is the
// headline trade: aggressive tunings buy tail latency with node-seconds.
func ClusterAutoscale(p Params) *Report {
	p = p.fill()
	n := clusterTaskCount(p)
	slo := p.sloCycles()
	min, max := p.MinNodes, p.MaxNodes

	// Rates keyed to the cluster_scaling headline (one node sustains 64k
	// tasks/s under the 1000us SLO): the diurnal mean sits mid-band and the
	// flash crowd spikes past the max bound, so both bounds get exercised.
	perNode := 64e3
	meanRate := perNode * float64(min+max) / 2
	arrivalKinds := []struct {
		key string
		gen serve.Generator
	}{
		{"diurnal", serve.Diurnal{MeanRate: meanRate, Swing: 0.8, Period: 400_000, Seed: p.Seed}},
		{"flash", serve.FlashCrowd{BaseRate: perNode * float64(min), SpikeRate: 1.5 * perNode * float64(max),
			SpikeAt: 200_000, SpikeDur: 400_000, Seed: p.Seed}},
	}
	gentle := autoscale.DefaultTuning()
	gentle.SLO = slo
	gentle.PerNodeRate = perNode
	tunings := []struct {
		key string
		tu  autoscale.Tuning
	}{
		{"gentle", gentle},
		{"aggressive", gentle.Aggressive()},
	}

	mk := mbTasks(n, p.Seed)
	cfg := p.runnerCfg()
	schemes := p.gpuSchemes()
	policies := p.scalePolicies()

	r := newReport("cluster_autoscale",
		fmt.Sprintf("Fleet autoscaling (MB, %d tasks, %d..%d nodes, policy %s, p99 SLO %.0fus; trace section %d tasks on %d..%d nodes)",
			n, min, max, p.Policy, slo/1e3, p.Tasks, asTraceMin, asTraceMax),
		"Arrivals", "Scaler", "Tuning", "Scheme", "p99(us)", "drops", "goodput",
		"node-sec", "ns/Mtask", "outs", "ins", "peak")
	r.setSeed(p.Seed)

	type asCell struct {
		arr, pol, tun string
		sc            runners.Scheme
		out           *fleetOut
	}
	s := newSweep(p)
	var cells []asCell
	for _, ak := range arrivalKinds {
		for _, pol := range policies {
			for _, tn := range tunings {
				co := runners.ClusterOpenLoop{Admit: queue32,
					Scaler: mkScalerFor(pol, tn.tu, min, max, asSweepInterval, asSweepWarmup, asSweepCooldown)}
				for _, sc := range schemes {
					cells = append(cells, asCell{ak.key, pol, tn.key, sc,
						fleetCell(s, mk, cfg, sc, slo, ak.gen, co, p.clusterPolicy())})
				}
			}
		}
	}

	// Trace-replay section: record a diurnal arrival sequence once, replay it
	// through serve.Trace at the full (uncapped) task count on the fixed
	// 8..32 bounds with the production lifecycle defaults. This is the cell
	// that scales to a million tasks: `pagodabench -exp cluster_autoscale
	// -tasks 1000000 -scheme <key>`.
	traceMean := perNode * float64(asTraceMin+asTraceMax) / 2
	recorded := serve.Diurnal{MeanRate: traceMean, Swing: 0.6, Period: 2_000_000, Seed: p.Seed}.Times(p.Tasks)
	traceGen := serve.Trace{Label: "diurnal-replay", At: recorded}
	traceTu := autoscale.DefaultTuning()
	traceTu.SLO = slo
	traceTu.PerNodeRate = perNode
	mkTrace := mbTasks(p.Tasks, p.Seed)
	for _, pol := range policies {
		co := runners.ClusterOpenLoop{Admit: queue32,
			Scaler: mkScalerFor(pol, traceTu, asTraceMin, asTraceMax, 0, autoscale.DefaultWarmup, 0)}
		for _, sc := range schemes {
			cells = append(cells, asCell{"trace", pol, "default", sc,
				fleetCell(s, mkTrace, cfg, sc, slo, traceGen, co, p.clusterPolicy())})
		}
	}
	s.run()

	for _, c := range cells {
		st := c.out.st
		outs, ins, peak := c.out.outsInsPeak()
		r.addRow(c.arr, c.pol, c.tun, c.sc.Display,
			us(st.P99), fmt.Sprint(st.Dropped), f2(st.Goodput),
			fmt.Sprintf("%.4f", c.out.nodeSeconds()), f2(c.out.nodeSecPerMTask()),
			fmt.Sprint(outs), fmt.Sprint(ins), fmt.Sprint(peak))
		key := c.arr + "/" + c.pol
		if c.arr != "trace" {
			key += "/" + c.tun
		}
		key += "/" + c.sc.Key
		r.set(key+"/p99us", st.P99/1e3)
		r.set(key+"/goodput", st.Goodput)
		r.set(key+"/drops", float64(st.Dropped))
		r.set(key+"/nodesec", c.out.nodeSeconds())
		r.set(key+"/nodesec-mtask", c.out.nodeSecPerMTask())
		r.set(key+"/scale-outs", float64(outs))
		r.set(key+"/scale-ins", float64(ins))
		r.set(key+"/peak", float64(peak))
	}
	r.note("node-sec charges every provisioned cycle from provision to retirement — warm-up (%.0fus sweep, %.0fus trace) and drain included; ns/Mtask = node-sec per million tasks served", asSweepWarmup/1e3, autoscale.DefaultWarmup/1e3)
	r.note("conservation (routed = done + dropped on every node ever provisioned) is asserted inside every cell; scale-event counts are outs/ins, peak is the highest provisioned count")
	r.note("trace rows replay a recorded diurnal trace (%d arrivals) on fixed %d..%d bounds with default lifecycle, so their ns/Mtask is comparable across runs", p.Tasks, asTraceMin, asTraceMax)
	return r
}
