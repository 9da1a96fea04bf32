package runners

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// clusterBackend names one scheme's cluster runner for the fleet gates.
type clusterBackend struct {
	key     string
	cluster func([]workloads.TaskDef, ClusterOpenLoop, Config) (Result, ClusterRun)
}

// clusterBackends derives the gate list from the scheme registry, so a newly
// registered scheme is covered by every fleet gate automatically.
func clusterBackends() []clusterBackend {
	var out []clusterBackend
	for _, s := range Schemes() {
		out = append(out, clusterBackend{s.Key, s.RunCluster})
	}
	return out
}

func clusterTestTasks(t *testing.T, n int) []workloads.TaskDef {
	t.Helper()
	b, err := workloads.ByName("MB")
	if err != nil {
		t.Fatalf("MB workload missing: %v", err)
	}
	return b.Make(workloads.Options{Tasks: n, Threads: 128, Seed: 1})
}

func clusterTestConfig() Config {
	cfg := DefaultConfig()
	cfg.SMMs = 4
	return cfg
}

// TestClusterConservationEveryPolicyBackend asserts the fleet-wide
// conservation invariant — submitted = done + dropped, per node and in total —
// for every routing policy crossed with every backend, under drop-inducing
// admission and bursty arrivals.
func TestClusterConservationEveryPolicyBackend(t *testing.T) {
	const n = 64
	const nodesN = 4
	tasks := clusterTestTasks(t, n)
	cfg := clusterTestConfig()
	arrivals := serve.Bursty{PeakRate: 1e6, Burst: 8, Gap: 50_000}.Times(n)
	classes := make([]int, n)
	for i := range classes {
		classes[i] = i % 5
	}

	for _, be := range clusterBackends() {
		for _, pname := range cluster.PolicyNames() {
			t.Run(be.key+"/"+pname, func(t *testing.T) {
				mk, err := cluster.NewPolicy(pname, 7)
				if err != nil {
					t.Fatal(err)
				}
				co := ClusterOpenLoop{
					Arrivals: arrivals,
					Classes:  classes,
					Nodes:    nodesN,
					Policy:   mk(),
					Admit:    func() func(sim.Time, int) bool { return serve.BoundedQueue{Limit: 4}.Admit },
				}
				_, cr := be.cluster(tasks, co, cfg)

				if err := cr.CheckConservation(); err != nil {
					t.Fatalf("conservation: %v", err)
				}
				for i, v := range cr.Views {
					if !v.Conserved() {
						t.Errorf("node %d not conserved: %+v", i, v)
					}
				}
				routed := make([]int, nodesN)
				for ti, nd := range cr.NodeOf {
					if nd < 0 || nd >= nodesN {
						t.Fatalf("task %d routed out of range: %d", ti, nd)
					}
					routed[nd]++
				}
				for i, v := range cr.Views {
					if routed[i] != v.Routed {
						t.Errorf("node %d: NodeOf says %d tasks, view says %d", i, routed[i], v.Routed)
					}
				}
				dropped := 0
				for _, r := range cr.Recs {
					if r.Dropped {
						dropped++
					}
				}
				if dropped == 0 {
					t.Error("queue4 admission under bursts produced no drops; conservation not exercised")
				}
			})
		}
	}
}

// TestClusterDeterministicRepeat runs the same seeded fleet twice and demands
// bit-identical records, routing, and per-node accounting — the fleet is one
// engine, one clock, zero host-order dependence.
func TestClusterDeterministicRepeat(t *testing.T) {
	const n = 64
	tasks := clusterTestTasks(t, n)
	cfg := clusterTestConfig()
	arrivals := serve.Poisson{Rate: 256e3, Seed: 5}.Times(n)

	for _, be := range clusterBackends() {
		t.Run(be.key, func(t *testing.T) {
			run := func() (Result, ClusterRun) {
				co := ClusterOpenLoop{Arrivals: arrivals, Nodes: 3, Policy: cluster.NewPowerOfTwo(9)}
				return be.cluster(tasks, co, cfg)
			}
			res1, cr1 := run()
			res2, cr2 := run()
			if res1 != res2 {
				t.Errorf("results diverged across identical runs:\n %+v\n %+v", res1, res2)
			}
			if !reflect.DeepEqual(cr1.Recs, cr2.Recs) {
				t.Error("records diverged across identical runs")
			}
			if !reflect.DeepEqual(cr1.NodeOf, cr2.NodeOf) {
				t.Error("routing diverged across identical runs")
			}
			if !reflect.DeepEqual(cr1.Views, cr2.Views) {
				t.Error("node views diverged across identical runs")
			}
		})
	}
}

// TestClusterSpreadsLoadAndCompletes checks the fleet actually behaves like a
// fleet: with round-robin over 4 nodes every node serves a share, everything
// completes under unbounded admission, and NodeRecords partitions the record
// set.
func TestClusterSpreadsLoadAndCompletes(t *testing.T) {
	const n = 64
	const nodesN = 4
	tasks := clusterTestTasks(t, n)
	cfg := clusterTestConfig()
	arrivals := serve.Poisson{Rate: 128e3, Seed: 2}.Times(n)

	for _, be := range clusterBackends() {
		t.Run(be.key, func(t *testing.T) {
			co := ClusterOpenLoop{Arrivals: arrivals, Nodes: nodesN, Policy: cluster.NewRoundRobin()}
			res, cr := be.cluster(tasks, co, cfg)

			if res.Tasks != n {
				t.Errorf("completed %d tasks, want %d", res.Tasks, n)
			}
			total := 0
			for i, v := range cr.Views {
				if v.Routed != n/nodesN {
					t.Errorf("node %d routed %d tasks, want %d", i, v.Routed, n/nodesN)
				}
				if v.Done != v.Routed {
					t.Errorf("node %d done %d of %d routed (unbounded admission)", i, v.Done, v.Routed)
				}
				nr := cr.NodeRecords(i)
				if len(nr) != v.Routed {
					t.Errorf("node %d: NodeRecords %d, view routed %d", i, len(nr), v.Routed)
				}
				total += len(nr)
			}
			if total != n {
				t.Errorf("NodeRecords cover %d tasks, want %d", total, n)
			}
			for ti, r := range cr.Recs {
				if r.Dropped {
					t.Errorf("task %d dropped under unbounded admission", ti)
				}
				if !(r.Submit <= r.Start && r.Start <= r.Done) {
					t.Errorf("task %d out of order: %+v", ti, r)
				}
			}
		})
	}
}
