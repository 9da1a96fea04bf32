package main

import (
	"fmt"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/runners"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/tenancy"
	"repro/internal/workloads"
)

// Workload sizes. One pass runs every simRun of a workload once; the run
// phase repeats passes, so a pass is sized to a few host seconds on a
// 2-CPU Xeon and the sizes stay fixed across seeds.
const (
	batchTasks  = 192  // tasks per benchmark batch
	tenantTasks = 480  // offered XFMR requests per tenants run, over 3 classes
	tenantDraws = 2    // tenants runs per scheme and policy, each its own arrivals
	fleetTasks  = 1200 // offered MB requests per fleet run
)

// Serving parameters. The tenant mix, rate, SLO and backlog bound are the
// tenant_qos experiment's defaults. The fleet takes cluster_autoscale's
// trace-replay shape (8..32 nodes, queue32 admission, default tuning) with
// the lifecycle of its sweep section, which is scaled to horizons of a few
// milliseconds, and a diurnal swing around 12 nodes' worth of load, so both
// scaling policies scale out and in within one trace.
const (
	sloCycles     = sim.Time(1000e3) // premium and fleet p99 SLO: 1000us
	tenantRate    = 192e3            // contracted tasks/s per class
	tenantLimit   = 64               // admitted-but-uncompleted backlog bound
	tenantClasses = 3
	tenantMisfit  = 1 // the class offering 10x its contract

	fleetPerNode   = 64e3 // tasks/s one node holds under the SLO
	fleetMeanNodes = 12   // mean offered load, in nodes' worth
	fleetSwing     = 0.8  // diurnal amplitude; one period spans the trace
	fleetMin       = 8
	fleetMax       = 32
	fleetQueue     = 32                // per-node BoundedQueue limit
	fleetInterval  = sim.Time(50_000)  // 50us control loop
	fleetWarmup    = sim.Time(200_000) // 200us provision-to-dispatchable
	fleetCooldown  = sim.Time(100_000) // 100us between scale events
)

// A simRun is one call into a scheme entry point with inputs built at
// set-up. exec performs only program calls — the scheme run and the
// program's own post-run accounting — so its duration is the host time the
// program took; evaluation of the outcome happens outside it.
type simRun struct {
	label   string // "<scheme>/<variant>", the run's key in digests
	scheme  string
	offered int
	exec    func(tr *tracer) outcome
}

// outcome is what one simRun produced.
type outcome struct {
	res  runners.Result
	recs []serve.Record // per-task records; nil for closed-loop runs

	schemeNs int64 // host time of the scheme call (traced runs)

	// badTasks lists the tasks whose TaskDef.Check failed; lost is set when
	// the run's conservation check failed; panicMsg when the run panicked.
	badTasks []int
	lost     error
	panicMsg string
	// sloMet counts completed tasks within their SLO (closed-loop runs have
	// no SLO: every completed task counts).
	sloMet int

	// Layer outcomes, nil or zero where the layer is not on the run's path.
	admission     []tenancy.Outcome // per-task admission outcome (tenants)
	shed, evicted int
	cluster       *runners.ClusterRun // fleet runs
}

type workload struct {
	name  string
	setup func(seed int64, tr *tracer) []simRun
}

var allWorkloads = []workload{
	{"batch", setupBatch},
	{"tenants", setupTenants},
	{"fleet", setupFleet},
}

func workloadByName(name string) (workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(allWorkloads))
	for i, w := range allWorkloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// setupBatch builds the batch workload: closed-loop Scheme.Run batches of
// five narrow-task benchmarks (the paper's Figure 5 unit of work), timing
// only, with PCIe copies on.
func setupBatch(seed int64, tr *tracer) []simRun {
	benches := []struct {
		name   string
		shared bool
	}{{"MB", false}, {"DCT", true}, {"SLUD", false}, {"3DES", false}, {"XFMR", false}}
	cfg := runners.DefaultConfig()
	var runs []simRun
	for _, sc := range runners.Schemes() {
		for _, bn := range benches {
			b, err := workloads.ByName(bn.name)
			if err != nil {
				panic(err)
			}
			sc := sc
			tasks := tr.makeTasks(b, workloads.Options{Tasks: batchTasks, UseShared: bn.shared, Seed: runSeed(seed, len(runs))})
			runs = append(runs, simRun{
				label: sc.Key + "/" + bn.name, scheme: sc.Key, offered: len(tasks),
				exec: func(tr *tracer) outcome {
					var o outcome
					run := tr.wrapTasks(tasks)
					o.schemeNs = tr.call("runners", "Run/"+sc.Key, nil, func() { o.res = sc.Run(run, cfg) })
					o.sloMet = o.res.Tasks
					return o
				},
			})
		}
	}
	return runs
}

// setupTenants builds the tenants workload: open-loop XFMR inference with
// real math (Verify on) offered by three tenant classes, one at 10x its
// contract, under strict-priority and weighted-fair admission.
func setupTenants(seed int64, tr *tracer) []simRun {
	perClass := tenantTasks / tenantClasses
	horizon := sim.Time(float64(perClass) / tenantRate * 1e9)
	counts := make([]int, tenantClasses)
	for c := range counts {
		counts[c] = perClass
	}
	b, err := workloads.ByName("XFMR")
	if err != nil {
		panic(err)
	}
	tasks := tr.makeTasks(b, workloads.Options{Tasks: perClass * tenantClasses, Verify: true, Seed: seed})
	cfg := runners.DefaultConfig()

	var runs []simRun
	for draw := 0; draw < tenantDraws; draw++ {
		for _, policy := range []string{tenancy.AdmitStrict, tenancy.AdmitWFQ} {
			for _, sc := range runners.Schemes() {
				policy, sc := policy, sc
				classes := tenancy.DefaultClasses(tenantClasses, tenantRate, sloCycles, horizon,
					runSeed(seed, len(runs)), tenantMisfit)
				var arrivals []sim.Time
				var classOf []int
				tr.call("tenancy", "Merge", &tr.c.Merge, func() { arrivals, classOf = tenancy.Merge(classes, counts) })
				runs = append(runs, simRun{
					label: fmt.Sprintf("%s/%s/%d", sc.Key, policy, draw), scheme: sc.Key, offered: len(tasks),
					exec: func(tr *tracer) outcome {
						var o outcome
						adm := tenancy.NewAdmission(policy, classes, arrivals, classOf, tenantLimit, true)
						ol := runners.OpenLoop{Arrivals: arrivals, AdmitTask: tr.wrapAdmit(adm.AdmitTask)}
						run := tr.wrapTasks(tasks)
						o.schemeNs = tr.call("runners", "RunOpenLoop/"+sc.Key, nil, func() { o.res, o.recs = sc.RunOpenLoop(run, ol, cfg) })
						tr.call("workloads", "Check", &tr.c.Check, func() {
							for i, r := range o.recs {
								if !r.Dropped && r.Done > 0 && tasks[i].Check() != nil {
									o.badTasks = append(o.badTasks, i)
								}
							}
						})
						o.admission = adm.Outcomes()
						if !recordsInOrder(o.recs) {
							return o
						}
						var st []tenancy.ClassStats
						tr.call("tenancy", "SummarizeClasses", &tr.c.Classes, func() {
							st = tenancy.SummarizeClasses(classes, classOf, o.recs, o.admission)
						})
						for _, s := range st {
							o.sloMet += s.SLOMet
							o.shed += s.Shed
							o.evicted += s.Evicted
						}
						return o
					},
				})
			}
		}
	}
	return runs
}

// setupFleet builds the fleet workload: a recorded diurnal trace of MB
// requests replayed through Scheme.RunCluster on an autoscaled 8..32-node
// fleet with JSQ dispatch and a bounded per-node queue, under the reactive
// and predictive scaling policies.
func setupFleet(seed int64, tr *tracer) []simRun {
	mean := fleetPerNode * fleetMeanNodes
	horizon := sim.Time(fleetTasks / mean * 1e9)
	b, err := workloads.ByName("MB")
	if err != nil {
		panic(err)
	}
	tasks := tr.makeTasks(b, workloads.Options{Tasks: fleetTasks, Threads: 128, Seed: seed})
	cfg := runners.DefaultConfig()
	tu := autoscale.DefaultTuning()
	tu.SLO = sloCycles
	tu.PerNodeRate = fleetPerNode

	var runs []simRun
	for _, policy := range autoscale.PolicyNames() {
		mkPolicy, err := autoscale.NewPolicy(policy, tu)
		if err != nil {
			panic(err)
		}
		for _, sc := range runners.Schemes() {
			sc := sc
			diurnal := serve.Diurnal{MeanRate: mean, Swing: fleetSwing, Period: horizon, Seed: runSeed(seed, len(runs))}
			recorded := tr.times(diurnal.Name(), fleetTasks, diurnal.Times)
			replay := serve.Trace{Label: "diurnal-replay", At: recorded}
			arrivals := tr.times(replay.Name(), fleetTasks, replay.Times)
			runs = append(runs, simRun{
				label: sc.Key + "/" + policy, scheme: sc.Key, offered: len(tasks),
				exec: func(tr *tracer) outcome {
					var o outcome
					var cr runners.ClusterRun
					co := runners.ClusterOpenLoop{
						Arrivals: arrivals,
						Policy:   tr.wrapPick(cluster.JoinShortestQueue{}),
						Admit:    func() func(sim.Time, int) bool { return serve.BoundedQueue{Limit: fleetQueue}.Admit },
						Scaler: &autoscale.Config{Min: fleetMin, Max: fleetMax,
							Policy: tr.wrapScaler(mkPolicy), Interval: fleetInterval, Warmup: fleetWarmup, Cooldown: fleetCooldown},
					}
					run := tr.wrapTasks(tasks)
					o.schemeNs = tr.call("runners", "RunCluster/"+sc.Key, nil, func() { o.res, cr = sc.RunCluster(run, co, cfg) })
					o.recs, o.cluster = cr.Recs, &cr
					if o.lost = cr.CheckConservation(); o.lost != nil {
						return o
					}
					if !recordsInOrder(o.recs) {
						return o
					}
					var st serve.Stats
					tr.call("serve", "Summarize", &tr.c.Summary, func() { st = serve.Summarize(o.recs, sloCycles) })
					o.sloMet = st.SLOMet
					return o
				},
			})
		}
	}
	return runs
}

// runSeed derives the input seed of a workload's i-th run. Every run draws
// its own inputs, so a pass averages over independent draws and its
// simulated totals vary little from seed to seed.
func runSeed(seed int64, i int) int64 { return seed*100 + int64(i) }

// recordsInOrder reports whether every completed record keeps
// Submit <= Start <= Done, the precondition of the program's summaries
// (which panic otherwise); evaluation counts the offending tasks.
func recordsInOrder(recs []serve.Record) bool {
	for _, r := range recs {
		if !r.Dropped && (r.Start < r.Submit || r.Done < r.Start) {
			return false
		}
	}
	return true
}
