package runners

import (
	"repro/internal/serve"
	"repro/internal/workloads"
)

// Scheme is one GPU execution scheme's complete entry-point surface: the
// closed-loop, open-loop and cluster runners under one stable key. The
// registry is the single source of truth the harness tables, the CLI's
// -scheme filter, the perf baselines and the cross-scheme test gates
// (determinism, conservation, record golden) all derive from — a scheme
// registered here inherits every gate and every report column without
// further wiring.
type Scheme struct {
	Key     string // stable id: flags, Values keys, perf metric names
	Display string // table cell / report name

	Run         func([]workloads.TaskDef, Config) Result
	RunOpenLoop func([]workloads.TaskDef, OpenLoop, Config) (Result, []serve.Record)
	RunCluster  func([]workloads.TaskDef, ClusterOpenLoop, Config) (Result, ClusterRun)
}

// newScheme registers a scheme from its closed loop and its node type: the
// open loop and the cluster runner are both the one fleet driver over
// newNode, so a scheme's serving host path is written once.
func newScheme(key, display string, run func([]workloads.TaskDef, Config) Result, newNode newNodeFunc) Scheme {
	return Scheme{
		Key:     key,
		Display: display,
		Run:     run,
		RunOpenLoop: func(tasks []workloads.TaskDef, ol OpenLoop, cfg Config) (Result, []serve.Record) {
			return runOpenLoop(tasks, ol, cfg, key, newNode)
		},
		RunCluster: func(tasks []workloads.TaskDef, co ClusterOpenLoop, cfg Config) (Result, ClusterRun) {
			return runFleet(tasks, co, cfg, key, newNode)
		},
	}
}

// Schemes returns the GPU scheme registry in canonical report order. Only
// GPU schemes appear: the CPU baselines (PThreads, sequential) have no
// open-loop or fleet form to register.
func Schemes() []Scheme {
	return []Scheme{
		newScheme("hyperq", "CUDA-HyperQ", RunHyperQ, newHyperQNode),
		newScheme("gemtc", "GeMTC", RunGeMTC, newGeMTCNode),
		newScheme("pagoda", "Pagoda", RunPagoda, newPagodaNode),
		newScheme("zorua", "Zorua", RunZorua, newZoruaNode),
	}
}

// SchemeKeys returns the registered keys in canonical order.
func SchemeKeys() []string {
	ss := Schemes()
	keys := make([]string, len(ss))
	for i, s := range ss {
		keys[i] = s.Key
	}
	return keys
}

// SchemeByKey looks a scheme up by its stable key.
func SchemeByKey(key string) (Scheme, bool) {
	for _, s := range Schemes() {
		if s.Key == key {
			return s, true
		}
	}
	return Scheme{}, false
}
