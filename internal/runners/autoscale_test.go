package runners

import (
	"reflect"
	"testing"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/tenancy"
)

// elasticTestScaler is a deliberately twitchy configuration so small test
// runs actually exercise scale-out, warm-up and drain: tight watermarks,
// short control interval, minimal cooldown.
func elasticTestScaler(policy string, min, max int) *autoscale.Config {
	tu := autoscale.DefaultTuning()
	tu.High, tu.Low, tu.Step = 2, 0, 1
	tu.Alpha, tu.PerNodeRate, tu.Headroom = 0.5, 48e3, 1.25
	mk, err := autoscale.NewPolicy(policy, tu)
	if err != nil {
		panic(err)
	}
	return &autoscale.Config{Min: min, Max: max, Policy: mk,
		Interval: 50_000, Warmup: 200_000, Cooldown: 100_000}
}

// TestElasticDisabledMatchesFixedFleet is the acceptance pin from the issue:
// with autoscaling disabled (min = max = N) every scheme's cluster run must
// reproduce the fixed-fleet records, routing, views and aggregates bit for
// bit — a Min == Max scaler is the same fleet with no controller.
func TestElasticDisabledMatchesFixedFleet(t *testing.T) {
	const n, nodesN = 64, 3
	tasks := clusterTestTasks(t, n)
	cfg := clusterTestConfig()
	arrivals := serve.Poisson{Rate: 256e3, Seed: 3}.Times(n)

	for _, be := range clusterBackends() {
		t.Run(be.key, func(t *testing.T) {
			fres, fcr := be.cluster(tasks, ClusterOpenLoop{
				Arrivals: arrivals, Nodes: nodesN, Policy: cluster.LeastOutstanding{}}, cfg)
			eres, ecr := be.cluster(tasks, ClusterOpenLoop{
				Arrivals: arrivals, Policy: cluster.LeastOutstanding{},
				Scaler: &autoscale.Config{Min: nodesN, Max: nodesN}}, cfg)

			if fres != eres {
				t.Errorf("results diverged:\n fixed   %+v\n scaler  %+v", fres, eres)
			}
			if !reflect.DeepEqual(fcr.Recs, ecr.Recs) {
				t.Error("records diverged between fixed fleet and disabled scaler")
			}
			if !reflect.DeepEqual(fcr.NodeOf, ecr.NodeOf) {
				t.Error("routing diverged between fixed fleet and disabled scaler")
			}
			if !reflect.DeepEqual(fcr.Views, ecr.Views) {
				t.Error("views diverged between fixed fleet and disabled scaler")
			}
			if ecr.Scale != nil {
				t.Error("disabled scaler still produced a scale outcome")
			}
		})
	}
}

// TestElasticConservationEveryPolicyScheme is the ledger gate across scale
// events: for every scheme x scaling policy, a flash-crowd run that provably
// scales out (and drops under bounded admission) must keep routed = done +
// dropped on every node ever provisioned — including nodes that warmed up
// mid-run and nodes that drained and retired.
func TestElasticConservationEveryPolicyScheme(t *testing.T) {
	const n = 96
	tasks := clusterTestTasks(t, n)
	cfg := clusterTestConfig()
	arrivals := serve.FlashCrowd{BaseRate: 32e3, SpikeRate: 2e6,
		SpikeAt: 500_000, SpikeDur: 1_000_000, Seed: 2}.Times(n)

	for _, be := range clusterBackends() {
		for _, pol := range autoscale.PolicyNames() {
			t.Run(be.key+"/"+pol, func(t *testing.T) {
				co := ClusterOpenLoop{
					Arrivals: arrivals,
					Policy:   cluster.LeastOutstanding{},
					Admit:    func() func(sim.Time, int) bool { return serve.BoundedQueue{Limit: 6}.Admit },
					Scaler:   elasticTestScaler(pol, 1, 4),
				}
				_, cr := be.cluster(tasks, co, cfg)

				if err := cr.CheckConservation(); err != nil {
					t.Fatalf("conservation: %v", err)
				}
				if cr.Scale == nil {
					t.Fatal("elastic run returned no scale outcome")
				}
				if cr.Scale.ScaleOuts == 0 {
					t.Error("flash crowd provoked no scale-out; lifecycle not exercised")
				}
				if cr.Scale.Peak > 4 || len(cr.Views) > 1000 {
					t.Errorf("peak %d outside bounds", cr.Scale.Peak)
				}
				if len(cr.Scale.Nodes) != len(cr.Views) {
					t.Errorf("%d lifecycle spans for %d views", len(cr.Scale.Nodes), len(cr.Views))
				}
				for i, sp := range cr.Scale.Nodes {
					if sp.State != autoscale.Retired {
						t.Errorf("node %d finished in state %v, want retired", i, sp.State)
					}
					if !(sp.ProvisionedAt <= sp.ClosedAt && sp.ClosedAt <= sp.RetiredAt) {
						t.Errorf("node %d span out of order: %+v", i, sp)
					}
					// ActiveAt is 0 only for a node canceled during warm-up,
					// which must then have served nothing.
					if sp.ActiveAt == 0 && i >= 1 && cr.Views[i].Routed != 0 {
						t.Errorf("node %d never active but routed %d tasks", i, cr.Views[i].Routed)
					}
					if sp.ActiveAt != 0 && !(sp.ProvisionedAt <= sp.ActiveAt && sp.ActiveAt <= sp.ClosedAt) {
						t.Errorf("node %d active span out of order: %+v", i, sp)
					}
				}
				dropped := 0
				for _, r := range cr.Recs {
					if r.Dropped {
						dropped++
					}
				}
				if dropped == 0 {
					t.Error("queue6 admission under a flash crowd produced no drops")
				}
			})
		}
	}
}

// TestElasticTenancyConservation runs class-aware fleet-wide admission under
// scaling and checks the tenancy ledger end to end: every task has a final
// outcome, outcome agrees with the record's Dropped bit, and per-class
// offered = served + shed + evicted.
func TestElasticTenancyConservation(t *testing.T) {
	const n, nClasses = 96, 3
	tasks := clusterTestTasks(t, n)
	cfg := clusterTestConfig()
	arrivals := serve.FlashCrowd{BaseRate: 32e3, SpikeRate: 2e6,
		SpikeAt: 500_000, SpikeDur: 1_000_000, Seed: 4}.Times(n)
	classOf := make([]int, n)
	for i := range classOf {
		classOf[i] = i % nClasses
	}
	horizon := arrivals[n-1] + 1
	classes := tenancy.DefaultClasses(nClasses, 64e3, 1_000_000, horizon, 11, -1)

	for _, be := range clusterBackends() {
		t.Run(be.key, func(t *testing.T) {
			adm := tenancy.NewAdmission(tenancy.AdmitWFQ, classes, arrivals, classOf, 8, true)
			co := ClusterOpenLoop{
				Arrivals:  arrivals,
				Classes:   classOf,
				Policy:    cluster.LeastOutstanding{},
				AdmitTask: adm.AdmitTask,
				Scaler:    elasticTestScaler("reactive", 1, 4),
			}
			_, cr := be.cluster(tasks, co, cfg)

			if err := cr.CheckConservation(); err != nil {
				t.Fatalf("fleet conservation: %v", err)
			}
			served := make([]int, nClasses)
			shed := make([]int, nClasses)
			evicted := make([]int, nClasses)
			for ti, o := range adm.Outcomes() {
				c := classOf[ti]
				switch o {
				case tenancy.Served:
					served[c]++
				case tenancy.Shed:
					shed[c]++
				case tenancy.Evicted:
					evicted[c]++
				default:
					t.Fatalf("task %d left pending", ti)
				}
				if dropped := o != tenancy.Served; dropped != cr.Recs[ti].Dropped {
					t.Errorf("task %d: outcome %v but record dropped=%v", ti, o, cr.Recs[ti].Dropped)
				}
			}
			for c := 0; c < nClasses; c++ {
				offered := 0
				for _, cc := range classOf {
					if cc == c {
						offered++
					}
				}
				if served[c]+shed[c]+evicted[c] != offered {
					t.Errorf("class %d leaked: offered %d = served %d + shed %d + evicted %d",
						c, offered, served[c], shed[c], evicted[c])
				}
			}
		})
	}
}

// TestElasticDeterministicRepeat: identical elastic runs must agree on
// everything — records, routing, views, and the scale-event log itself.
func TestElasticDeterministicRepeat(t *testing.T) {
	const n = 96
	tasks := clusterTestTasks(t, n)
	cfg := clusterTestConfig()
	arrivals := serve.FlashCrowd{BaseRate: 32e3, SpikeRate: 2e6,
		SpikeAt: 500_000, SpikeDur: 1_000_000, Seed: 6}.Times(n)

	for _, be := range clusterBackends() {
		t.Run(be.key, func(t *testing.T) {
			run := func() (Result, ClusterRun) {
				co := ClusterOpenLoop{Arrivals: arrivals, Policy: cluster.NewRoundRobin(),
					Scaler: elasticTestScaler("predictive", 1, 4)}
				return be.cluster(tasks, co, cfg)
			}
			res1, cr1 := run()
			res2, cr2 := run()
			if res1 != res2 {
				t.Errorf("results diverged:\n %+v\n %+v", res1, res2)
			}
			if !reflect.DeepEqual(cr1.Recs, cr2.Recs) {
				t.Error("records diverged across identical elastic runs")
			}
			if !reflect.DeepEqual(cr1.NodeOf, cr2.NodeOf) {
				t.Error("routing diverged across identical elastic runs")
			}
			if !reflect.DeepEqual(cr1.Views, cr2.Views) {
				t.Error("views diverged across identical elastic runs")
			}
			if !reflect.DeepEqual(cr1.Scale, cr2.Scale) {
				t.Error("scale outcomes diverged across identical elastic runs")
			}
		})
	}
}

// TestElasticWarmupDelaysDispatch: no task may be routed to a node before
// that node's warm-up elapsed — the Submit instant of everything a scale-out
// node served must be at or past its ActiveAt.
func TestElasticWarmupDelaysDispatch(t *testing.T) {
	const n = 96
	tasks := clusterTestTasks(t, n)
	cfg := clusterTestConfig()
	arrivals := serve.FlashCrowd{BaseRate: 32e3, SpikeRate: 2e6,
		SpikeAt: 500_000, SpikeDur: 1_000_000, Seed: 8}.Times(n)

	for _, be := range clusterBackends() {
		t.Run(be.key, func(t *testing.T) {
			co := ClusterOpenLoop{Arrivals: arrivals, Policy: cluster.LeastOutstanding{},
				Scaler: elasticTestScaler("reactive", 1, 4)}
			_, cr := be.cluster(tasks, co, cfg)
			if cr.Scale.ScaleOuts == 0 {
				t.Fatal("no scale-out to check warm-up against")
			}
			for ti, nd := range cr.NodeOf {
				sp := cr.Scale.Nodes[nd]
				if cr.Recs[ti].Submit < sp.ActiveAt {
					t.Errorf("task %d routed to node %d at %v, before its ActiveAt %v",
						ti, nd, cr.Recs[ti].Submit, sp.ActiveAt)
				}
				if sp.ClosedAt > 0 && cr.Recs[ti].Submit > sp.ClosedAt {
					t.Errorf("task %d routed to node %d at %v, after it closed at %v",
						ti, nd, cr.Recs[ti].Submit, sp.ClosedAt)
				}
			}
		})
	}
}
