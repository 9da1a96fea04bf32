// Command simbench is the repository's end-to-end benchmark. It builds one
// workload's inputs from a seed, then runs the workload's simulations back
// to back — closed loop, one client, no harness cell pool — for a fixed
// host-time budget, checks every simulated output, and prints one JSON line
// of metrics.
//
// Usage (from the repository root, see run.sh):
//
//	simbench --workload batch|tenants|fleet --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics: simulator throughput,
// set-up time, memory, allocations, goroutines and the simulated outputs.
// With --trace 1 it alternates untraced and traced passes and prints the
// per-layer metrics: host self time per layer, exact work counts, and the
// tracing overhead. Layers are timed from outside, by wrapping the
// callbacks the program accepts (task kernels and their DeviceCtx,
// admission, routing and scaling policies) and the calls into each package.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// Set-up runs at least minSetups times, and more while the set-ups so far
// took less than setupBudget, up to maxSetups; setup_s is the median of
// their CPU times.
const (
	defaultSeed = 1
	minSetups   = 3
	maxSetups   = 25
	setupBudget = time.Second
)

//go:embed digests.json
var committedDigests []byte

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: batch, tenants or fleet")
	seed := fs.Int64("seed", defaultSeed, "input seed")
	seconds := fs.Float64("seconds", 10, "host seconds of the run phase")
	traced := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	traceDir := fs.String("trace-out", ".bench_build/trace", "directory the traced run writes its spans to")
	update := fs.String("update-digests", "", "rewrite this digest file's entry for the workload (default seed only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "simbench: --trace must be 0 or 1")
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintln(stderr, "simbench: --seconds must be positive")
		return 2
	}
	if *update != "" && *seed != defaultSeed {
		fmt.Fprintf(stderr, "simbench: digests are committed for seed %d only\n", defaultSeed)
		return 2
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(committedDigests, &want); err != nil {
		fmt.Fprintln(stderr, "simbench: committed digests:", err)
		return 1
	}
	// One simulation runs at a time; the second P serves the garbage
	// collector, on any host with at least two CPUs.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	b := bench{w: w, seed: *seed, trace: *traced == 1}
	if *seed == defaultSeed && *update == "" {
		b.want = want[w.name]
	}
	b.setup()
	b.measure(time.Duration(*seconds * float64(time.Second)))

	if *update != "" {
		if err := updateDigests(*update, w.name, b.ref); err != nil {
			fmt.Fprintln(stderr, "simbench: update digests:", err)
			return 1
		}
	}
	var m map[string]metric
	if b.trace {
		if err := writeTrace(*traceDir, w.name, *seed, b.setupTr, b.tr); err != nil {
			fmt.Fprintln(stderr, "simbench: write trace:", err)
			return 1
		}
		m = b.layerMetrics()
	} else {
		m = b.endToEnd()
	}
	for _, msg := range b.problems {
		fmt.Fprintln(stderr, "simbench:", msg)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, m})
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// updateDigests rewrites one workload's entry in the digest file at path.
func updateDigests(path, workload string, digests map[string]string) error {
	all := map[string]map[string]string{}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &all); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	all[workload] = digests
	data, err = json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one process's run of one workload.
type bench struct {
	w     workload
	seed  int64
	trace bool
	want  map[string]string // committed per-run digests, nil to skip

	runs     []simRun
	setupS   []float64
	setupTr  *tracer // the last set-up's spans (traced runs only)
	tr       *tracer // shared by every traced pass
	passes   []passResult
	ref      map[string]string // per-run digests of the first pass
	problems []string

	// Taken once, after the first pass and a GC.
	liveGoroutines int
	peakRSSMB      float64

	attempted, failed int
}

// passResult is one pass over every simRun of the workload.
type passResult struct {
	traced    bool
	programNs int64 // host time inside program calls
	offered   int
	completed int
	failed    int
	mallocs   uint64
	gcCPU     float64

	elapsed sim.Time   // Σ Result.Elapsed
	p99s    []sim.Time // Result.P99Latency per run
	sloMet  int
	runs    []runStat
}

// runStat is what the per-layer report needs from one run.
type runStat struct {
	scheme     string
	openLoop   bool // the run went through the serve layer's records
	tenancy    bool
	offered    int
	completed  int
	admitted   int
	programNs  int64 // host wall time inside program calls
	cpuNs      int64 // process CPU time (user + system) over the same calls
	deviceNs   int64 // scheme span minus callback self time (traced)
	leaked     int   // goroutines the run left behind
	shed       int
	evicted    int
	imbalance  float64
	scaled     bool
	outs, ins  int
	peak       int
	nodeCycles float64
}

func (b *bench) setup() {
	var total time.Duration
	for i := 0; i < maxSetups && (i < minSetups || total < setupBudget); i++ {
		b.runs = nil
		runtime.GC()
		tr := newTracer(b.trace)
		start, cpu0 := time.Now(), cpuNs()
		b.runs = b.w.setup(b.seed, tr)
		total += time.Since(start)
		b.setupS = append(b.setupS, float64(cpuNs()-cpu0)/1e9)
		b.setupTr = tr
	}
	b.tr = newTracer(true)
}

// measure repeats passes while the next one is likely to end within the
// budget. A traced benchmark alternates untraced and traced passes, starting
// untraced, so both see the same host conditions.
func (b *bench) measure(budget time.Duration) {
	off := newTracer(false)
	start := time.Now()
	for i := 0; ; i++ {
		passStart := time.Now()
		tr := off
		if b.trace && i%2 == 1 {
			tr = b.tr
		}
		p := b.pass(tr)
		b.passes = append(b.passes, p)
		b.attempted += p.offered
		b.failed += p.failed
		if i == 0 {
			runtime.GC()
			b.liveGoroutines = settledGoroutines()
			var ru syscall.Rusage
			if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
				b.peakRSSMB = float64(ru.Maxrss) / 1024 // kB on Linux
			}
		}
		minPasses := 1
		if b.trace {
			minPasses = 2
		}
		// Stop before a pass that would likely overrun the budget.
		if i+1 >= minPasses && time.Since(start)+time.Since(passStart) > budget {
			return
		}
	}
}

// pass runs every simRun once and evaluates its outputs.
func (b *bench) pass(tr *tracer) passResult {
	p := passResult{traced: tr.on}
	gc0 := gcCPUSeconds()
	for _, r := range b.runs {
		var ms0, ms1 runtime.MemStats
		g0 := settledGoroutines()
		runtime.ReadMemStats(&ms0)
		cb0 := tr.c.callbackNs()
		var o outcome
		var panicked bool
		cpu0 := cpuNs()
		start := time.Now()
		tr.call("simbench", r.label, nil, func() { o, panicked = execute(r, tr) })
		d := time.Since(start).Nanoseconds()
		cpu := cpuNs() - cpu0
		cb1 := tr.c.callbackNs()
		runtime.ReadMemStats(&ms1)
		leaked := settledGoroutines() - g0

		ev := b.evaluate(r, o, panicked)
		p.programNs += d
		p.mallocs += ms1.Mallocs - ms0.Mallocs
		p.offered += r.offered
		p.completed += ev.completed
		p.failed += ev.failed
		p.elapsed += o.res.Elapsed
		p.p99s = append(p.p99s, o.res.P99Latency)
		p.sloMet += o.sloMet
		rs := runStat{scheme: r.scheme, openLoop: o.recs != nil, tenancy: o.admission != nil,
			offered: r.offered, completed: ev.completed, admitted: ev.admitted, programNs: d, cpuNs: cpu,
			deviceNs: o.schemeNs - (cb1 - cb0), leaked: leaked, shed: o.shed, evicted: o.evicted}
		if cr := o.cluster; cr != nil {
			rs.imbalance = imbalance(cr.Views)
			if s := cr.Scale; s != nil {
				rs.scaled, rs.outs, rs.ins, rs.peak, rs.nodeCycles = true, s.ScaleOuts, s.ScaleIns, s.Peak, s.NodeCycles
			}
		}
		p.runs = append(p.runs, rs)
	}
	p.gcCPU = gcCPUSeconds() - gc0
	return p
}

// execute runs one simRun, turning a panic anywhere in the program into a
// failed run.
func execute(r simRun, tr *tracer) (o outcome, panicked bool) {
	defer func() {
		if v := recover(); v != nil {
			o, panicked = outcome{panicMsg: fmt.Sprint(v)}, true
		}
	}()
	return r.exec(tr), false
}

type evaluation struct {
	completed, failed, admitted int
}

// evaluate checks one run's outputs, folds them into its digest and
// compares the digest with the first pass and, for the default seed, with
// the committed value. A task fails when its Check fails, its record breaks
// Submit <= Start <= Done, its run loses tasks (conservation, or fewer
// completions than Result.Tasks), its run panics, or its run's digest
// differs; the last three fail every task of the run.
func (b *bench) evaluate(r simRun, o outcome, panicked bool) evaluation {
	fail := func(msg string) evaluation {
		b.problems = append(b.problems, fmt.Sprintf("%s/%s seed %d: %s", b.w.name, r.label, b.seed, msg))
		return evaluation{failed: r.offered}
	}
	if panicked {
		return fail("panic: " + o.panicMsg)
	}
	if o.lost != nil {
		return fail(o.lost.Error())
	}
	var ev evaluation
	if o.recs == nil {
		ev.completed = o.res.Tasks
		if o.res.Tasks != r.offered || !(o.res.Elapsed > 0) {
			return fail(fmt.Sprintf("completed %d of %d tasks in %v cycles", o.res.Tasks, r.offered, o.res.Elapsed))
		}
	} else {
		bad := make(map[int]bool, len(o.badTasks))
		for _, i := range o.badTasks {
			bad[i] = true
		}
		for i, rec := range o.recs {
			if rec.Dropped {
				continue
			}
			ev.admitted++
			if bad[i] || !(rec.Submit <= rec.Start && rec.Start <= rec.Done) || !(rec.Done > 0) {
				ev.failed++
				continue
			}
			ev.completed++
		}
		if ev.completed+ev.failed < o.res.Tasks {
			ev.failed += o.res.Tasks - ev.completed - ev.failed
		}
		if ev.failed > 0 {
			b.problems = append(b.problems, fmt.Sprintf("%s/%s seed %d: %d tasks failed their checks",
				b.w.name, r.label, b.seed, ev.failed))
		}
	}
	d := digest(r.label, o)
	if b.ref == nil {
		b.ref = map[string]string{}
	}
	if ref, ok := b.ref[r.label]; !ok {
		b.ref[r.label] = d
	} else if ref != d {
		return fail(fmt.Sprintf("digest %s differs from the first pass's %s", d, ref))
	}
	if b.want != nil && b.want[r.label] != d {
		return fail(fmt.Sprintf("digest %s differs from the committed %q", d, b.want[r.label]))
	}
	return ev
}

// digest hashes every simulated output of one run: the Result fields, the
// per-task records and the layer outcomes. It is a pure function of the
// simulation, so it repeats across passes, processes and tracing.
func digest(label string, o outcome) string {
	h := sha256.New()
	io.WriteString(h, label)
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	r := o.res
	for _, v := range []float64{r.Elapsed, r.AvgLatency, r.MaxLatency, r.P50Latency, r.P90Latency,
		r.P99Latency, r.Occupancy, r.IssueUtil, float64(r.Tasks), float64(o.sloMet)} {
		put(v)
	}
	for _, rec := range o.recs {
		put(rec.Submit)
		put(rec.Start)
		put(rec.Done)
		if rec.Dropped {
			put(1)
		} else {
			put(0)
		}
	}
	for _, a := range o.admission {
		put(float64(a))
	}
	if cr := o.cluster; cr != nil {
		for _, n := range cr.NodeOf {
			put(float64(n))
		}
		for _, v := range cr.Views {
			put(float64(v.Routed))
			put(float64(v.Done))
			put(float64(v.Dropped))
		}
		if s := cr.Scale; s != nil {
			for _, v := range []float64{s.NodeCycles, float64(s.ScaleOuts), float64(s.ScaleIns), float64(s.Peak)} {
				put(v)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// imbalance is max/mean tasks routed per node, over every node the fleet
// ever provisioned.
func imbalance(views []cluster.NodeView) float64 {
	sum, max := 0, 0
	for _, v := range views {
		sum += v.Routed
		if v.Routed > max {
			max = v.Routed
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(len(views)) / float64(sum)
}

// settledGoroutines counts goroutines once the count has stopped moving: a
// simulation's finished processes let their goroutines exit just after the
// run returns.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for stable, i := 0, 0; stable < 3 && i < 1000; i++ {
		runtime.Gosched()
		if m := runtime.NumGoroutine(); m == n {
			stable++
		} else {
			n, stable = m, 0
		}
	}
	return n
}

// cpuNs is the process's user plus system CPU time. Time the host takes the
// CPU away (another process, or the hypervisor stealing the vCPU) does not
// count, which keeps throughput steady on a shared machine.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// throughput returns completed simulated tasks per CPU second the process
// spent in program calls, over the untraced (traced == false) or traced
// passes. Each run's CPU time is its median over those passes, so a hiccup
// during one run of one pass does not move the figure; the pass total is the
// sum of those medians.
func (b *bench) throughput(traced bool) float64 {
	var times [][]float64
	for _, p := range b.passes {
		if p.traced != traced {
			continue
		}
		for i, r := range p.runs {
			if i == len(times) {
				times = append(times, nil)
			}
			times[i] = append(times[i], float64(r.cpuNs)/1e9)
		}
	}
	var secs float64
	for _, t := range times {
		secs += median(t)
	}
	return ratio(float64(b.passes[0].completed), secs)
}

// endToEnd reports the metrics a user of the simulator sees. Host figures
// are medians over untraced passes; simulated figures come from the first
// pass, which every later pass reproduces bit for bit (the digest check).
func (b *bench) endToEnd() map[string]metric {
	first := b.passes[0]
	var mallocs uint64
	completed := 0
	for _, p := range b.passes {
		mallocs += p.mallocs
		completed += p.completed
	}
	m := map[string]metric{
		"sim_tasks_per_s": {b.throughput(false), "tasks/s"},
		"setup_s":         {median(b.setupS), "s"},
		"peak_rss_mb":     {b.peakRSSMB, "MB"},
		"allocs_per_task": {ratio(float64(mallocs), float64(completed)), "allocs"},
		"live_goroutines": {float64(b.liveGoroutines), "count"},
		"sim_makespan_ms": {first.elapsed / 1e6, "ms"},
		"sim_p99_us":      {first.p99() / 1e3, "us"},
		"sim_goodput":     {ratio(float64(first.sloMet), float64(first.offered)), "ratio"},
	}
	return m
}

// p99 is the mean over the pass's runs of each run's p99 latency
// (Result.P99Latency, an exact nearest-rank order statistic over the run's
// completed tasks). Closed-loop runs expose only these per-run statistics,
// and a pooled p99 would follow whichever scheme has the longest tail.
func (p passResult) p99() sim.Time {
	var sum sim.Time
	for _, v := range p.p99s {
		sum += v
	}
	return sum / sim.Time(len(p.p99s))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
