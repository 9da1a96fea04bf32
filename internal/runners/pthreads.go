package runners

import (
	"repro/internal/hostcpu"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// RunPThreads executes the task stream on the simulated 20-core CPU with a
// PThreads-style worker pool — the paper's best-performing CPU scheme
// ("PThreads obtained the best results"). No PCIe copies are involved.
func RunPThreads(tasks []workloads.TaskDef, _ Config) Result {
	hts := make([]hostcpu.Task, len(tasks))
	for i := range tasks {
		hts[i] = hostcpu.Task{Cycles: tasks[i].CPUCycles, Fn: tasks[i].CPURun}
	}
	endTime := hostcpu.RunPThreadsScheme(sim.New(), hostcpu.Xeon20(), hts).Elapsed

	// Mean latency under a work-conserving pool is approximated as half the
	// makespan; the paper's latency figure (Fig. 10) compares only Pagoda and
	// static fusion, so this bound is never plotted.
	var latSum float64
	var latMax sim.Time
	for range tasks {
		latSum += endTime / 2
		if endTime > latMax {
			latMax = endTime
		}
	}

	r := Result{Elapsed: endTime, MaxLatency: latMax, Tasks: len(tasks)}
	if len(tasks) > 0 {
		r.AvgLatency = latSum / float64(len(tasks))
		// The half-makespan approximation has no tail information; report it
		// uniformly so percentile columns stay populated.
		r.P50Latency = r.AvgLatency
		r.P90Latency = r.AvgLatency
		r.P99Latency = r.AvgLatency
	}
	return r
}

// RunSequential executes the tasks one after another on a single core with
// no pool overhead — the base for the paper's speedup axis.
func RunSequential(tasks []workloads.TaskDef) Result {
	var total float64
	cfg := hostcpu.Xeon20()
	for i := range tasks {
		if tasks[i].CPURun != nil {
			tasks[i].CPURun()
		}
		total += tasks[i].CPUCycles
	}
	elapsed := total / cfg.FreqGHz
	return Result{
		Elapsed:    elapsed,
		AvgLatency: elapsed / 2,
		MaxLatency: elapsed,
		Tasks:      len(tasks),
	}
}
