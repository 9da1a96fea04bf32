package runners

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// settledGoroutines polls runtime.NumGoroutine for up to about two seconds
// until it drops to want, and returns the last count. A finished process's
// goroutine exits just after handing the baton on, so the count settles
// shortly after a run returns rather than at once.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 2000 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestRunsEndClean runs every registered scheme's closed loop, open loop,
// fixed fleet and autoscaled fleet, and the static-fusion and PThreads
// closed loops, several times and checks that the goroutine count returns
// to where it started: no run leaves a parked process behind.
func TestRunsEndClean(t *testing.T) {
	const n, runs = 32, 3
	tasks := clusterTestTasks(t, n)
	cfg := clusterTestConfig()
	arrivals := serve.Poisson{Rate: 256e3, Seed: 5}.Times(n)

	start := runtime.NumGoroutine()
	for _, sc := range Schemes() {
		for i := 0; i < runs; i++ {
			sc.Run(tasks, cfg)
			sc.RunOpenLoop(tasks, OpenLoop{Arrivals: arrivals}, cfg)
			sc.RunCluster(tasks, ClusterOpenLoop{
				Arrivals: arrivals, Nodes: 3, Policy: cluster.LeastOutstanding{},
			}, cfg)
			sc.RunCluster(tasks, ClusterOpenLoop{
				Arrivals: arrivals, Policy: cluster.LeastOutstanding{},
				Scaler: elasticTestScaler("reactive", 2, 4),
			}, cfg)
		}
		if got := settledGoroutines(start); got > start {
			t.Errorf("%s: %d goroutines after %d runs of each mode, want %d as at the start",
				sc.Key, got, runs, start)
		}
	}
	for name, run := range map[string]func(tasks []workloads.TaskDef, cfg Config) Result{
		"fusion": RunFusion, "pthreads": RunPThreads,
	} {
		for i := 0; i < runs; i++ {
			run(tasks, cfg)
		}
		if got := settledGoroutines(start); got > start {
			t.Errorf("%s: %d goroutines after %d runs, want %d as at the start", name, got, runs, start)
		}
	}
}
