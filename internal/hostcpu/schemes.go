package hostcpu

import (
	"fmt"

	"repro/internal/sim"
)

// The paper evaluated four CPU execution schemes before picking its baseline
// ("we implemented OpenMP with data parallelism, OS-based task scheduling,
// Python-based thread pooling, and PThreads-based task parallelism. PThreads
// obtained the best results", §6.2). This file models the three rejected
// schemes so that comparison is reproducible.

// SchemeResult is one CPU scheme's makespan for a task set.
type SchemeResult struct {
	Scheme  string
	Elapsed sim.Time
}

// openMPConfig models fork-join data parallelism: every task is spread over
// all cores, paying a fork-join barrier per task. Narrow tasks parallelize
// poorly this way — per-task work / cores is small next to the barrier.
type openMPConfig struct {
	Config
	ForkJoinCost sim.Time // per-task team fork + barrier join
	// Efficiency < 1: cache-line sharing and uneven chunking inside one
	// small task.
	Efficiency float64
}

// RunOpenMP executes each task as a data-parallel loop over the cores.
func RunOpenMP(eng *sim.Engine, cfg Config, tasks []Task) SchemeResult {
	oc := openMPConfig{Config: cfg, ForkJoinCost: 2600, Efficiency: 0.75}
	var end sim.Time
	eng.Spawn("omp-host", func(p *sim.Proc) {
		for i := range tasks {
			t := &tasks[i]
			if t.Fn != nil {
				t.Fn()
			}
			per := t.Cycles / (float64(oc.Cores) * oc.Efficiency)
			p.Sleep(oc.ForkJoinCost + per/oc.FreqGHz)
		}
		end = eng.Now()
	})
	eng.Run()
	return SchemeResult{Scheme: "OpenMP", Elapsed: end}
}

// RunOSSched models scheduling each task as a short-lived OS thread/process:
// full parallelism, but kernel-level dispatch costs (thread creation,
// context switches) per task dwarf the pool's.
func RunOSSched(eng *sim.Engine, cfg Config, tasks []Task) SchemeResult {
	osCfg := cfg
	osCfg.DispatchCost = 12_000 // ~12 us: clone + schedule + reap
	pool := NewPool(eng, osCfg)
	var end sim.Time
	eng.Spawn("os-host", func(p *sim.Proc) {
		for i := range tasks {
			pool.Submit(p, tasks[i])
		}
		pool.WaitAll(p)
		end = eng.Now()
		pool.Close()
	})
	eng.Run()
	return SchemeResult{Scheme: "OS-sched", Elapsed: end}
}

// RunPythonPool models a CPython thread pool: cheap dispatch, but the GIL
// serializes execution — only a small fraction of each task (native
// extensions releasing the lock) overlaps.
func RunPythonPool(eng *sim.Engine, cfg Config, tasks []Task) SchemeResult {
	const (
		interpreterOverhead = 8.0  // interpreted-loop slowdown on task cycles
		parallelFraction    = 0.15 // work done outside the GIL
	)
	var end sim.Time
	eng.Spawn("py-host", func(p *sim.Proc) {
		var serial, parallel float64
		for i := range tasks {
			t := &tasks[i]
			if t.Fn != nil {
				t.Fn()
			}
			cyc := t.Cycles * interpreterOverhead
			serial += cyc * (1 - parallelFraction)
			parallel += cyc * parallelFraction
		}
		p.Sleep((serial + parallel/float64(cfg.Cores)) / cfg.FreqGHz)
		end = eng.Now()
	})
	eng.Run()
	return SchemeResult{Scheme: "Python-pool", Elapsed: end}
}

// RunPThreadsScheme wraps the Pool baseline in the same result shape.
func RunPThreadsScheme(eng *sim.Engine, cfg Config, tasks []Task) SchemeResult {
	pool := NewPool(eng, cfg)
	var end sim.Time
	eng.Spawn("pt-host", func(p *sim.Proc) {
		for i := range tasks {
			pool.Submit(p, tasks[i])
		}
		pool.WaitAll(p)
		end = eng.Now()
		pool.Close()
	})
	eng.Run()
	return SchemeResult{Scheme: "PThreads", Elapsed: end}
}

// CompareCPUSchemes runs a task set under all four CPU schemes (each on a
// fresh engine) and returns the results in the paper's order. The caller
// passes a generator so each scheme gets an identical, independent task set.
func CompareCPUSchemes(cfg Config, mkTasks func() []Task) []SchemeResult {
	runs := []func(*sim.Engine, Config, []Task) SchemeResult{
		RunOpenMP, RunOSSched, RunPythonPool, RunPThreadsScheme,
	}
	out := make([]SchemeResult, 0, len(runs))
	for _, run := range runs {
		out = append(out, run(sim.New(), cfg, mkTasks()))
	}
	return out
}

func (r SchemeResult) String() string {
	return fmt.Sprintf("%s: %.2f ms", r.Scheme, r.Elapsed/1e6)
}
