// Command pagodatrace runs a narrow-task workload on Pagoda with execution
// tracing enabled and writes a Chrome trace-event JSON timeline (load it in
// chrome://tracing or https://ui.perfetto.dev) showing every task span per
// MTB — the reproduction's answer to profiling a MasterKernel run with
// nvprof.
//
// Usage:
//
//	pagodatrace -bench MB -tasks 256 -o trace.json
//	pagodatrace -nodes 4 -policy p2c -scheme pagoda -o fleet.json
//
// With -nodes N > 0 the command switches to cluster mode: it runs an
// open-loop arrival stream on an N-node fleet (one engine, one clock) and
// writes a merged trace with one wait/service track per node
// ("node00/serve-pagoda", ...). Track order is stable — lexicographic, which
// is node order — and the printed summary groups by node, then category.
//
// With -tenants N > 0 the command switches to tenant mode instead: the
// open-loop stream is the merge of N tenant classes (premium/standard/batch
// tiers, one misbehaving at 10x its contract) through the class-aware
// admission layer, and the trace carries one wait/service track per tenant
// ("tenant-premium/serve-pagoda", ...) with a per-tenant outcome summary.
//
// With -autoscale <policy> the fleet is elastic instead of fixed: a diurnal
// arrival wave drives the named scaling policy between -minnodes and
// -maxnodes, and the trace gains a "fleet/scale" track whose warmup, active
// and drain spans show each node's lifecycle alongside the per-node serve
// tracks. Mutually exclusive with -tenants.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/pcie"
	"repro/internal/runners"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/tenancy"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// run executes the traced simulation; split from main so the smoke test can
// drive the command with small flags and inspect the written trace.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("pagodatrace", flag.ContinueOnError)
	benchName := fs.String("bench", "MB", "workload: MB, FB, BF, CONV, DCT, MM, SLUD, 3DES, MPE")
	tasks := fs.Int("tasks", 256, "number of tasks")
	threads := fs.Int("threads", 128, "threads per task")
	smms := fs.Int("smms", 8, "simulated SMMs")
	seed := fs.Int64("seed", 1, "workload and arrival-stream seed")
	nodes := fs.Int("nodes", 0, "cluster mode: fleet size (0 = single-device closed-loop trace)")
	autoPol := fs.String("autoscale", "", "elastic cluster mode: scaling policy (empty = fixed fleet): "+strings.Join(autoscale.PolicyNames(), ", "))
	minNodes := fs.Int("minnodes", 2, "elastic mode lower fleet bound")
	maxNodes := fs.Int("maxnodes", 8, "elastic mode upper fleet bound")
	policy := fs.String("policy", "rr", "cluster mode routing policy: "+fmt.Sprint(cluster.PolicyNames()))
	scheme := fs.String("scheme", "pagoda", "cluster/tenant mode execution scheme: "+strings.Join(runners.SchemeKeys(), ", "))
	rate := fs.Float64("rate", 64e3, "cluster/tenant mode offered arrival rate (per node / contracted per class), tasks/s")
	tenants := fs.Int("tenants", 0, "tenant mode: tenant classes (0 = off); one wait/service track per tenant")
	admit := fs.String("admit", tenancy.AdmitStrict, "tenant mode admission policy: "+strings.Join(tenancy.Kinds(), ", "))
	out := fs.String("o", "trace.json", "output file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tasks < 1 {
		return fmt.Errorf("pagodatrace: -tasks %d: need at least one task", *tasks)
	}
	if *smms < 1 {
		return fmt.Errorf("pagodatrace: -smms %d: the device needs at least one SMM", *smms)
	}
	if !(*rate > 0) || math.IsInf(*rate, 0) {
		return fmt.Errorf("pagodatrace: -rate %g: the offered rate must be positive and finite", *rate)
	}
	if *nodes > 0 && *tenants > 0 {
		return fmt.Errorf("pagodatrace: -nodes and -tenants are mutually exclusive modes")
	}
	if *autoPol != "" && *tenants > 0 {
		return fmt.Errorf("pagodatrace: -autoscale and -tenants are mutually exclusive modes")
	}
	if *minNodes < 1 || *minNodes > *maxNodes {
		return fmt.Errorf("pagodatrace: fleet bounds %d..%d are not a valid range", *minNodes, *maxNodes)
	}

	b, err := workloads.ByName(*benchName)
	if err != nil {
		return err
	}
	defs := b.Make(workloads.Options{Tasks: *tasks, Threads: *threads, Seed: *seed})

	if *autoPol != "" {
		return runAutoscale(w, defs, *benchName, *smms, *seed, *minNodes, *maxNodes, *autoPol, *policy, *scheme, *rate, *out)
	}
	if *nodes > 0 {
		return runCluster(w, defs, *benchName, *smms, *seed, *nodes, *policy, *scheme, *rate, *out)
	}
	if *tenants > 0 {
		return runTenants(w, b, *benchName, *tasks, *threads, *smms, *seed, *tenants, *admit, *scheme, *rate, *out)
	}

	eng := sim.New()
	gcfg := gpu.TitanX()
	gcfg.NumSMMs = *smms
	dev := gpu.NewDevice(eng, gcfg)
	bus := pcie.New(eng, pcie.Default())
	ctx := cuda.NewContext(eng, dev, bus, cuda.DefaultConfig())
	rt := core.NewRuntime(ctx, core.DefaultConfig())

	tr := trace.New()
	dev.Trace = tr
	rt.Trace = tr

	eng.Spawn("host", func(p *sim.Proc) {
		for i := range defs {
			td := &defs[i]
			rt.TaskSpawn(p, core.TaskSpec{
				Threads:   td.Threads,
				Blocks:    td.Blocks,
				SharedMem: td.SharedMem,
				Sync:      td.Sync,
				ArgBytes:  td.ArgBytes,
				Kernel:    func(tc *core.TaskCtx) { td.Kernel(tc) },
			})
		}
		rt.WaitAll(p)
		rt.Shutdown(p)
	})
	end := eng.Run()

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tr.WriteChromeJSON(f); err != nil {
		return err
	}

	st := rt.Stats()
	fmt.Fprintf(w, "ran %d %s tasks in %.2f ms simulated; wrote %d spans to %s\n",
		st.Completed, *benchName, end/1e6, tr.Len(), *out)
	summary := tr.Summary()
	cats := make([]string, 0, len(summary))
	for cat := range summary {
		cats = append(cats, cat)
	}
	sort.Strings(cats)
	for _, cat := range cats {
		s := summary[cat]
		fmt.Fprintf(w, "  %-12s %6d spans, %10.1f us total\n", cat, s.Count, s.Busy/1e3)
	}
	return nil
}

// runTenants runs the multi-tenant open loop on one device and writes a
// trace with one wait/service track per tenant class, plus a per-tenant
// outcome summary (served/shed/evicted and span totals).
func runTenants(w io.Writer, b workloads.Benchmark, benchName string,
	tasks, threads, smms int, seed int64, tenants int, admit, scheme string, rate float64, out string) error {
	sc, ok := runners.SchemeByKey(scheme)
	if !ok {
		return fmt.Errorf("pagodatrace: unknown scheme %q (valid: %s)", scheme, strings.Join(runners.SchemeKeys(), ", "))
	}
	okKind := false
	for _, k := range tenancy.Kinds() {
		okKind = okKind || k == admit
	}
	if !okKind {
		return fmt.Errorf("pagodatrace: unknown admission policy %q (valid: %s)", admit, strings.Join(tenancy.Kinds(), ", "))
	}

	const slo = sim.Time(1000e3) // 1000us premium p99 bound
	horizon := sim.Time(float64(tasks) / float64(tenants) / rate * 1e9)
	classes := tenancy.DefaultClasses(tenants, rate, slo, horizon, seed, 1)
	counts := make([]int, tenants)
	for c := range counts {
		counts[c] = tasks / tenants
		if c < tasks%tenants {
			counts[c]++
		}
	}
	arrivals, classOf := tenancy.Merge(classes, counts)
	defs := b.Make(workloads.Options{Tasks: len(arrivals), Threads: threads, Seed: seed})
	adm := tenancy.NewAdmission(admit, classes, arrivals, classOf, 64, admit != tenancy.AdmitNone)

	cfg := runners.DefaultConfig()
	cfg.SMMs = smms
	_, recs := sc.RunOpenLoop(defs, runners.OpenLoop{Arrivals: arrivals, AdmitTask: adm.AdmitTask}, cfg)

	// One wait/service track per tenant, built directly from the records so
	// each tenant's queueing story reads as its own timeline row.
	tr := trace.New()
	tracks := make([]string, tenants)
	for c, cl := range classes {
		tracks[c] = fmt.Sprintf("tenant-%s/serve-%s", cl.Name, scheme)
	}
	for i, r := range recs {
		if r.Dropped {
			continue
		}
		tr.Add(trace.Span{Name: trace.SpanName("wait", int64(i)), Cat: "wait",
			Track: tracks[classOf[i]], Start: r.Submit, End: r.Start})
		tr.Add(trace.Span{Name: trace.SpanName("service", int64(i)), Cat: "service",
			Track: tracks[classOf[i]], Start: r.Start, End: r.Done})
	}

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tr.WriteChromeJSON(f); err != nil {
		return err
	}

	st := tenancy.SummarizeClasses(classes, classOf, recs, adm.Outcomes())
	fmt.Fprintf(w, "ran %d %s tasks for %d tenants (%s admission, %s scheme); wrote %d spans to %s\n",
		len(recs), benchName, tenants, admit, scheme, tr.Len(), out)
	byTrack := tr.SummaryByTrack()
	for c := range classes {
		s := st[c]
		fmt.Fprintf(w, "  %s: offered %d, served %d, shed %d, evicted %d, p99 %.1f us\n",
			tracks[c], s.Offered, s.Completed, s.Shed, s.Evicted, s.P99/1e3)
		per := byTrack[tracks[c]]
		cats := make([]string, 0, len(per))
		for cat := range per {
			cats = append(cats, cat)
		}
		sort.Strings(cats)
		for _, cat := range cats {
			sum := per[cat]
			fmt.Fprintf(w, "    %-10s %6d spans, %10.1f us total\n", cat, sum.Count, sum.Busy/1e3)
		}
	}
	return nil
}

// runAutoscale runs an elastic fleet under a diurnal arrival wave and writes
// the merged trace: the usual per-node serve tracks plus a "fleet/scale"
// track carrying each node's warmup/active/drain lifecycle spans, so the
// timeline shows capacity following load.
func runAutoscale(w io.Writer, defs []workloads.TaskDef, benchName string,
	smms int, seed int64, minN, maxN int, autoPol, policy, scheme string, rate float64, out string) error {
	mk, err := cluster.NewPolicy(policy, seed)
	if err != nil {
		return err
	}
	sc, ok := runners.SchemeByKey(scheme)
	if !ok {
		return fmt.Errorf("pagodatrace: unknown scheme %q (valid: %s)", scheme, strings.Join(runners.SchemeKeys(), ", "))
	}
	tu := autoscale.DefaultTuning()
	tu.PerNodeRate = rate
	mkPol, err := autoscale.NewPolicy(autoPol, tu)
	if err != nil {
		return fmt.Errorf("pagodatrace: %v (valid: %s)", err, strings.Join(autoscale.PolicyNames(), ", "))
	}
	cfg := runners.DefaultConfig()
	cfg.SMMs = smms

	// A diurnal wave whose mean sits mid-band, with a short control loop and
	// warm-up so even small -tasks runs show scale events on the timeline.
	tr := trace.New()
	mean := rate * float64(minN+maxN) / 2
	co := runners.ClusterOpenLoop{
		Arrivals: serve.Diurnal{MeanRate: mean, Swing: 0.8, Period: 400_000, Seed: seed}.Times(len(defs)),
		Policy:   mk(),
		Scaler: &autoscale.Config{Min: minN, Max: maxN, Policy: mkPol,
			Interval: 50_000, Warmup: 200_000, Cooldown: 100_000},
		Trace: tr,
	}
	res, cr := sc.RunCluster(defs, co, cfg)
	if err := cr.CheckConservation(); err != nil {
		return err
	}

	// Lifecycle spans: one "fleet/scale" track, one span per phase per node.
	// A node canceled during warm-up (ActiveAt 0 despite a post-start
	// provision) reads as warmup for its whole open extent, then drain; the
	// initial nodes are active from t=0 with no warm-up.
	for i, sp := range cr.Scale.Nodes {
		activeFrom := sp.ActiveAt
		if sp.ActiveAt == 0 && sp.ProvisionedAt > 0 {
			activeFrom = sp.ClosedAt // never promoted
		}
		if activeFrom > sp.ProvisionedAt {
			tr.Add(trace.Span{Name: trace.SpanName("warmup", int64(i)), Cat: "warmup",
				Track: "fleet/scale", Start: sp.ProvisionedAt, End: activeFrom})
		}
		if sp.ClosedAt > activeFrom {
			tr.Add(trace.Span{Name: trace.SpanName("active", int64(i)), Cat: "active",
				Track: "fleet/scale", Start: activeFrom, End: sp.ClosedAt})
		}
		if sp.RetiredAt > sp.ClosedAt {
			tr.Add(trace.Span{Name: trace.SpanName("drain", int64(i)), Cat: "drain",
				Track: "fleet/scale", Start: sp.ClosedAt, End: sp.RetiredAt})
		}
	}

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tr.WriteChromeJSON(f); err != nil {
		return err
	}

	o := cr.Scale
	fmt.Fprintf(w, "ran %d %s tasks on an elastic %d..%d %s fleet (%s scaling, policy %s) in %.2f ms simulated; wrote %d spans to %s\n",
		len(defs), benchName, minN, maxN, scheme, autoPol, policy, res.Elapsed/1e6, tr.Len(), out)
	fmt.Fprintf(w, "  fleet/scale: %d scale-outs, %d scale-ins, peak %d nodes, %.4f node-seconds\n",
		o.ScaleOuts, o.ScaleIns, o.Peak, o.NodeSeconds())
	for i, track := range cr.Names {
		v := cr.Views[i]
		sp := o.Nodes[i]
		fmt.Fprintf(w, "  %s: routed %d, done %d, dropped %d (provisioned %.1f us, retired %.1f us)\n",
			track, v.Routed, v.Done, v.Dropped, sp.ProvisionedAt/1e3, sp.RetiredAt/1e3)
	}
	return nil
}

// runCluster runs the open-loop fleet and writes the merged per-node trace.
func runCluster(w io.Writer, defs []workloads.TaskDef, benchName string,
	smms int, seed int64, nodes int, policy, scheme string, rate float64, out string) error {
	mk, err := cluster.NewPolicy(policy, seed)
	if err != nil {
		return err
	}
	sc, ok := runners.SchemeByKey(scheme)
	if !ok {
		return fmt.Errorf("pagodatrace: unknown scheme %q (valid: %s)", scheme, strings.Join(runners.SchemeKeys(), ", "))
	}
	run := sc.RunCluster
	cfg := runners.DefaultConfig()
	cfg.SMMs = smms

	tr := trace.New()
	co := runners.ClusterOpenLoop{
		Arrivals: serve.Poisson{Rate: rate * float64(nodes), Seed: seed}.Times(len(defs)),
		Nodes:    nodes,
		Policy:   mk(),
		Trace:    tr,
	}
	res, cr := run(defs, co, cfg)
	if err := cr.CheckConservation(); err != nil {
		return err
	}

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tr.WriteChromeJSON(f); err != nil {
		return err
	}

	fmt.Fprintf(w, "ran %d %s tasks on %d %s nodes (policy %s) in %.2f ms simulated; wrote %d spans to %s\n",
		len(defs), benchName, nodes, scheme, policy, res.Elapsed/1e6, tr.Len(), out)
	byTrack := tr.SummaryByTrack()
	for i, track := range cr.Names { // "node%02d/..." names: index order = lexicographic order
		v := cr.Views[i]
		fmt.Fprintf(w, "  %s: routed %d, done %d, dropped %d\n", track, v.Routed, v.Done, v.Dropped)
		per := byTrack[track]
		cats := make([]string, 0, len(per))
		for cat := range per {
			cats = append(cats, cat)
		}
		sort.Strings(cats)
		for _, cat := range cats {
			s := per[cat]
			fmt.Fprintf(w, "    %-10s %6d spans, %10.1f us total\n", cat, s.Count, s.Busy/1e3)
		}
	}
	return nil
}
