package main

import "repro/internal/runners"

// layerMetrics reports the traced run: host self time per layer, exact work
// counts, and the tracing overhead. Times are seconds per traced pass (set-up
// times: per set-up), so they compare across runs of different lengths.
// Counts come from the first, untraced pass; the digest check guarantees
// every traced pass simulated the same thing. Ratios are reported beside
// their bases (trace.tasks_per_pass, serve.offered, the *_calls counts).
func (b *bench) layerMetrics() map[string]metric {
	first := b.passes[0]
	c := b.tr.c
	var traced, programNs, deviceNs int64
	schemeNs := map[string]int64{}
	for _, p := range b.passes {
		if !p.traced {
			continue
		}
		traced++
		programNs += p.programNs
		for _, r := range p.runs {
			deviceNs += r.deviceNs
			schemeNs[r.scheme] += r.deviceNs
		}
	}
	perPass := func(ns int64) float64 { return float64(ns) / float64(traced) / 1e9 }
	perCall := func(t tally) float64 { return ratio(float64(t.Ns), float64(t.Calls)) }
	calls := func(t tally) float64 { return float64(t.Calls) / float64(traced) }
	tasks := float64(first.completed)

	var offered, admitted, tenOffered, tenServed, shed, evicted, outs, ins, peak int
	var fleetRuns, scaledServed int
	var imb, nodeCycles float64
	leaked := map[string][]float64{}
	var allLeaked []float64
	for _, r := range first.runs {
		if r.openLoop {
			offered += r.offered
			admitted += r.admitted
		}
		leaked[r.scheme] = append(leaked[r.scheme], float64(r.leaked))
		allLeaked = append(allLeaked, float64(r.leaked))
		if r.tenancy {
			tenOffered += r.offered
			tenServed += r.completed
			shed += r.shed
			evicted += r.evicted
		}
		if r.imbalance > 0 {
			fleetRuns++
			imb += r.imbalance
		}
		if r.scaled {
			outs += r.outs
			ins += r.ins
			peak = max(peak, r.peak)
			nodeCycles += r.nodeCycles
			scaledServed += r.completed
		}
	}
	var gcCPU float64
	var untraced int
	for _, p := range b.passes {
		if !p.traced {
			gcCPU += p.gcCPU
			untraced++
		}
	}
	plain, withTrace := b.throughput(false), b.throughput(true)

	sc := b.setupTr.c
	m := map[string]metric{
		"runners.self_s":                {perPass(deviceNs), "s"},
		"runners.self_share":            {ratio(float64(deviceNs), float64(programNs)), "ratio"},
		"sim.leaked_goroutines_per_run": {mean(allLeaked), "count"},
		"gpu.charge_ops_per_task":       {calls(c.Ops) / tasks, "ops"},

		"workloads.make_s":                {float64(sc.Make.Ns) / 1e9, "s"},
		"workloads.kernel_self_s":         {perPass(c.Kernel.Ns), "s"},
		"workloads.kernel_calls_per_task": {calls(c.Kernel) / tasks, "calls"},
		"workloads.check_s":               {perPass(c.Check.Ns), "s"},

		"serve.arrivals_s":     {float64(sc.Arrival.Ns) / 1e9, "s"},
		"serve.summarize_s":    {perPass(c.Summary.Ns), "s"},
		"serve.offered":        {float64(offered), "tasks"},
		"serve.admitted_ratio": {ratio(float64(admitted), float64(offered)), "ratio"},

		"tenancy.merge_s":           {float64(sc.Merge.Ns) / 1e9, "s"},
		"tenancy.summarize_s":       {perPass(c.Classes.Ns), "s"},
		"tenancy.admit_calls":       {calls(c.Admit), "calls"},
		"tenancy.admit_ns_per_call": {perCall(c.Admit), "ns"},
		"tenancy.offered":           {float64(tenOffered), "tasks"},
		"tenancy.served_ratio":      {ratio(float64(tenServed), float64(tenOffered)), "ratio"},
		"tenancy.shed":              {float64(shed), "tasks"},
		"tenancy.evicted":           {float64(evicted), "tasks"},

		"cluster.pick_calls":       {calls(c.Pick), "calls"},
		"cluster.pick_ns_per_call": {perCall(c.Pick), "ns"},
		"cluster.imbalance":        {ratio(imb, float64(fleetRuns)), "ratio"},

		"autoscale.target_calls":       {calls(c.Target), "calls"},
		"autoscale.target_ns_per_call": {perCall(c.Target), "ns"},
		"autoscale.scale_outs":         {float64(outs), "count"},
		"autoscale.scale_ins":          {float64(ins), "count"},
		"autoscale.peak_nodes":         {float64(peak), "nodes"},
		"autoscale.node_sec_per_mtask": {ratio(nodeCycles/1e9, float64(scaledServed)/1e6), "node-s/Mtask"},

		"go.gc_cpu_s": {ratio(gcCPU, float64(untraced)), "s"},

		"trace.tasks_per_pass":       {tasks, "tasks"},
		"trace.program_s":            {perPass(programNs), "s"},
		"trace.untraced_tasks_per_s": {plain, "tasks/s"},
		"trace.traced_tasks_per_s":   {withTrace, "tasks/s"},
		"trace.overhead":             {ratio(plain-withTrace, plain), "ratio"},
	}
	for _, key := range runners.SchemeKeys() {
		m["runners."+key+".self_s"] = metric{perPass(schemeNs[key]), "s"}
		m["sim."+key+".leaked_goroutines_per_run"] = metric{mean(leaked[key]), "count"}
	}
	return m
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}
