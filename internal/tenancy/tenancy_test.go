package tenancy

import (
	"math"
	"testing"

	"repro/internal/serve"
	"repro/internal/sim"
)

func twoClasses(slo sim.Time) []Class {
	return []Class{
		{Name: "hi", Priority: 1, Weight: 2, Rate: 1e4, Burst: 4, SLO: slo,
			Gen: serve.FixedRate{Rate: 1e4}},
		{Name: "lo", Priority: 0, Weight: 1, Rate: 1e4, Burst: 4, SLO: 4 * slo,
			Gen: serve.FixedRate{Rate: 1e4}},
	}
}

func TestMergeSingleClassReducesToGenerator(t *testing.T) {
	cl := []Class{{Name: "only", Priority: 0, Weight: 1, Rate: 2e4, Burst: 1, SLO: 1e6,
		Gen: serve.Poisson{Rate: 2e4, Seed: 7}}}
	arr, classOf := Merge(cl, []int{64})
	want := cl[0].Gen.Times(64)
	if len(arr) != 64 {
		t.Fatalf("merged %d arrivals, want 64", len(arr))
	}
	for i := range arr {
		if arr[i] != want[i] {
			t.Fatalf("arrival %d = %v, want %v (single class must reduce to Gen.Times)", i, arr[i], want[i])
		}
		if classOf[i] != 0 {
			t.Fatalf("classOf[%d] = %d, want 0", i, classOf[i])
		}
	}
}

func TestMergeInterleavesSortedWithStableTies(t *testing.T) {
	cl := twoClasses(1e6)
	// Identical fixed-rate streams: every instant ties, and the tie must go
	// to the lower class index.
	arr, classOf := Merge(cl, []int{8, 8})
	if len(arr) != 16 {
		t.Fatalf("merged %d arrivals, want 16", len(arr))
	}
	for i := 1; i < len(arr); i++ {
		if arr[i] < arr[i-1] {
			t.Fatalf("merged arrivals decrease at %d: %v < %v", i, arr[i], arr[i-1])
		}
	}
	for i := 0; i < 16; i += 2 {
		if classOf[i] != 0 || classOf[i+1] != 1 {
			t.Fatalf("tie at pair %d broke to classes (%d,%d), want (0,1)", i/2, classOf[i], classOf[i+1])
		}
	}
	counts := make([]int, 2)
	for _, c := range classOf {
		counts[c]++
	}
	if counts[0] != 8 || counts[1] != 8 {
		t.Fatalf("per-class counts %v, want [8 8]", counts)
	}
}

// TestStrictNeverAdmitsLowerWhileHigherWaits drives the strict layer with a
// scrambled presentation order (the Pagoda multi-spawner shape) and checks
// the defining invariant at every step: a lower-class task is never served
// while any higher-class task has arrived but not been presented.
func TestStrictNeverAdmitsLowerWhileHigherWaits(t *testing.T) {
	cl := twoClasses(1e6)
	arr, classOf := Merge(cl, []int{40, 40})
	a := NewAdmission(AdmitStrict, cl, arr, classOf, 64, false)

	// Presentation order: a deterministic shuffle of the task indices,
	// presented at now = its arrival or later (we use the max arrival so
	// everything has "arrived" and waiting-work pressure is maximal).
	order := make([]int, len(arr))
	for i := range order {
		order[i] = i
	}
	rng := sim.Rand(99)
	for i := len(order) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	now := arr[len(arr)-1] + 1

	presented := make([]bool, len(arr))
	hiWaiting := func() int {
		n := 0
		for i := range arr {
			if classOf[i] == 0 && !presented[i] {
				n++
			}
		}
		return n
	}
	for _, ti := range order {
		wait := hiWaiting()
		got := a.AdmitTask(ti, now, 0)
		presented[ti] = true
		if classOf[ti] == 1 && wait > 0 && got {
			t.Fatalf("strict admitted lower-class task %d while %d higher-class tasks waited", ti, wait)
		}
		if classOf[ti] == 0 && !got {
			t.Fatalf("strict refused top-class task %d with an empty backlog", ti)
		}
	}
	for i, o := range a.Outcomes() {
		if o == Pending {
			t.Fatalf("task %d still pending after presentation", i)
		}
	}
}

// TestStrictRankNestedBacklog checks the inFlight half of the strict
// policy: the top class may fill the whole limit, the next rank half of it.
func TestStrictRankNestedBacklog(t *testing.T) {
	cl := twoClasses(1e6)
	arr, classOf := Merge(cl, []int{4, 4})
	a := NewAdmission(AdmitStrict, cl, arr, classOf, 8, false)
	now := arr[len(arr)-1] + 1

	// Present all hi tasks first so no higher-class work waits.
	for ti := range arr {
		if classOf[ti] == 0 {
			a.AdmitTask(ti, now, 0)
		}
	}
	var loTasks []int
	for ti := range arr {
		if classOf[ti] == 1 {
			loTasks = append(loTasks, ti)
		}
	}
	// Rank 1: threshold is limit>>1 = 4.
	if a.AdmitTask(loTasks[0], now, 3) != true {
		t.Fatalf("lower class refused below its backlog share")
	}
	if a.AdmitTask(loTasks[1], now, 4) != false {
		t.Fatalf("lower class admitted at its rank-nested threshold")
	}
	if a.Outcomes()[loTasks[1]] != Evicted {
		t.Fatalf("threshold refusal recorded as %v, want evicted", a.Outcomes()[loTasks[1]])
	}
}

// TestWFQSharesConvergeToWeights saturates a three-class WFQ layer with
// equal presentation rates and checks the admitted shares settle at the
// configured 4:2:1 weights. Priorities are equal so the SLO guard stays out
// of the picture and the fin contest alone decides.
func TestWFQSharesConvergeToWeights(t *testing.T) {
	per := 900
	cl := []Class{
		{Name: "a", Priority: 0, Weight: 4, Rate: 1e4, Burst: 1, SLO: 1e9, Gen: serve.FixedRate{Rate: 1e6}},
		{Name: "b", Priority: 0, Weight: 2, Rate: 1e4, Burst: 1, SLO: 1e9, Gen: serve.FixedRate{Rate: 1e6}},
		{Name: "c", Priority: 0, Weight: 1, Rate: 1e4, Burst: 1, SLO: 1e9, Gen: serve.FixedRate{Rate: 1e6}},
	}
	arr, classOf := Merge(cl, []int{per, per, per})
	limit := 32
	a := NewAdmission(AdmitWFQ, cl, arr, classOf, limit, false)
	now := arr[len(arr)-1] + 1

	// Round-robin presentation a,b,c,a,b,c... with the system pinned at
	// saturation (inFlight = limit): every slot is contested.
	byClass := make([][]int, 3)
	for ti, c := range classOf {
		byClass[c] = append(byClass[c], ti)
	}
	served := make([]int, 3)
	for i := 0; i < per; i++ {
		for c := 0; c < 3; c++ {
			if a.AdmitTask(byClass[c][i], now, limit) {
				served[c]++
			}
		}
	}
	total := served[0] + served[1] + served[2]
	if total == 0 {
		t.Fatalf("saturated WFQ served nothing")
	}
	weights := []float64{4, 2, 1}
	for c := range served {
		got := float64(served[c]) / float64(total)
		want := weights[c] / 7
		if math.Abs(got-want) > 0.05*want+0.01 {
			t.Fatalf("class %d share %.3f, want %.3f (served %v)", c, got, want, served)
		}
	}
}

// TestWFQWorkConservingBelowLimit: with free capacity and no SLO pressure,
// WFQ admits everything — fairness only bites at saturation.
func TestWFQWorkConservingBelowLimit(t *testing.T) {
	cl := twoClasses(1e15) // astronomically loose SLO: guard never fires
	arr, classOf := Merge(cl, []int{16, 16})
	a := NewAdmission(AdmitWFQ, cl, arr, classOf, 64, false)
	now := arr[len(arr)-1] + 1
	for ti := range arr {
		if !a.AdmitTask(ti, now, ti%8) {
			t.Fatalf("work-conserving WFQ refused task %d below the limit", ti)
		}
	}
}

// TestWFQSLOGuardPreempts: a lower-class task presented while a
// higher-class task has waited past half its SLO must be evicted, even
// with free capacity.
func TestWFQSLOGuardPreempts(t *testing.T) {
	slo := sim.Time(1e6)
	cl := twoClasses(slo)
	arr, classOf := Merge(cl, []int{4, 4})
	a := NewAdmission(AdmitWFQ, cl, arr, classOf, 64, false)

	// Find a lo task and an unpresented hi arrival; present the lo task at
	// an instant where the hi head-of-line age exceeds slo/2.
	hiOldest := sim.Time(math.Inf(1))
	for ti := range arr {
		if classOf[ti] == 0 && arr[ti] < hiOldest {
			hiOldest = arr[ti]
		}
	}
	var lo int
	for ti := range arr {
		if classOf[ti] == 1 {
			lo = ti
		}
	}
	now := hiOldest + slo // age = slo > slo/2
	if a.AdmitTask(lo, now, 0) {
		t.Fatalf("WFQ admitted a lower-class task while a higher class aged past half its SLO")
	}
	if a.Outcomes()[lo] != Evicted {
		t.Fatalf("SLO-guard preemption recorded as %v, want evicted", a.Outcomes()[lo])
	}
}

// TestConservation presents every task exactly once under each policy, with
// policing on, and checks the admission-layer books balance: offered =
// shed + evicted + served, AdmitTask's return value matches the recorded
// outcome, and nothing stays pending.
func TestConservation(t *testing.T) {
	for _, kind := range Kinds() {
		cl := twoClasses(1e6)
		// Over-offer both classes (FixedRate 1e4 arrivals against a token
		// bucket refilling at 1e4/s admits early bursts then sheds).
		cl[0].Rate, cl[1].Rate = 2e3, 2e3
		arr, classOf := Merge(cl, []int{60, 60})
		a := NewAdmission(kind, cl, arr, classOf, 8, true)

		served, shed, evicted := 0, 0, 0
		rng := sim.Rand(5)
		inFlight := 0
		for ti := range arr {
			got := a.AdmitTask(ti, arr[ti], inFlight)
			switch o := a.Outcomes()[ti]; o {
			case Served:
				served++
				inFlight++
				if !got {
					t.Fatalf("%s: task %d refused but recorded served", kind, ti)
				}
			case Shed:
				shed++
				if got {
					t.Fatalf("%s: task %d admitted but recorded shed", kind, ti)
				}
			case Evicted:
				evicted++
				if got {
					t.Fatalf("%s: task %d admitted but recorded evicted", kind, ti)
				}
			default:
				t.Fatalf("%s: task %d outcome %v after presentation", kind, ti, o)
			}
			if inFlight > 0 && rng.Intn(2) == 0 {
				inFlight-- // a completion
			}
		}
		if served+shed+evicted != len(arr) {
			t.Fatalf("%s: %d served + %d shed + %d evicted != %d offered", kind, served, shed, evicted, len(arr))
		}
		if kind == AdmitNone && (shed != 0 || evicted != 0) {
			t.Fatalf("none policy shed %d / evicted %d tasks", shed, evicted)
		}
		if kind != AdmitNone && shed == 0 {
			t.Fatalf("%s: policing on and over-offered, but nothing was shed", kind)
		}
	}
}

func TestSummarizeClassesSplitsOutcomes(t *testing.T) {
	cl := twoClasses(1000)
	recs := []serve.Record{
		{Submit: 0, Start: 10, Done: 500},  // hi, within SLO
		{Submit: 0, Start: 10, Done: 2000}, // hi, SLO violation
		{Dropped: true},                    // hi, shed
		{Submit: 5, Start: 20, Done: 900},  // lo, within its 4x SLO
		{Dropped: true},                    // lo, evicted
	}
	classOf := []int{0, 0, 0, 1, 1}
	outcomes := []Outcome{Served, Served, Shed, Served, Evicted}
	st := SummarizeClasses(cl, classOf, recs, outcomes)
	if len(st) != 2 {
		t.Fatalf("got %d class summaries, want 2", len(st))
	}
	hi, lo := st[0], st[1]
	if hi.Class != "hi" || hi.Offered != 3 || hi.Completed != 2 || hi.Shed != 1 || hi.Evicted != 0 {
		t.Fatalf("hi summary off: %+v", hi)
	}
	if hi.Violations != 1 {
		t.Fatalf("hi violations = %d, want 1", hi.Violations)
	}
	if lo.Offered != 2 || lo.Shed != 0 || lo.Evicted != 1 || lo.Violations != 0 {
		t.Fatalf("lo summary off: %+v", lo)
	}
	if hi.Dropped != hi.Shed+hi.Evicted || lo.Dropped != lo.Shed+lo.Evicted {
		t.Fatalf("dropped != shed + evicted: hi %+v lo %+v", hi, lo)
	}
}

func TestDefaultClasses(t *testing.T) {
	horizon := sim.Time(50e6)
	cls := DefaultClasses(3, 20e3, 1e6, horizon, 1, 1)
	if len(cls) != 3 {
		t.Fatalf("got %d classes, want 3", len(cls))
	}
	names := []string{"premium", "standard", "batch"}
	for i, c := range cls {
		if c.Name != names[i] {
			t.Errorf("class %d named %s, want %s", i, c.Name, names[i])
		}
		if err := c.Validate(); err != nil {
			t.Errorf("class %s invalid: %v", c.Name, err)
		}
		if i > 0 && cls[i-1].Priority <= c.Priority {
			t.Errorf("priorities not strictly decreasing at %d", i)
		}
	}
	// The misbehaving class offers ~10x its contract: its arrival stream
	// covers the same span in a tenth of the tasks' worth of time.
	honest := DefaultClasses(3, 20e3, 1e6, horizon, 1, -1)
	n := 200
	mis := cls[1].Gen.Times(n)
	ok := honest[1].Gen.Times(n)
	if mis[n-1] > ok[n-1]/5 {
		t.Errorf("misbehaving stream not ~10x faster: last arrivals %v vs %v", mis[n-1], ok[n-1])
	}
	if cls[1].Rate != honest[1].Rate {
		t.Errorf("misbehaving class changed its contracted rate")
	}
	// Extra classes extend the batch tier at decreasing priority.
	five := DefaultClasses(5, 20e3, 1e6, horizon, 1, -1)
	if five[4].Name != "batch3" || five[4].Priority >= five[3].Priority {
		t.Errorf("extra classes malformed: %+v", five[4])
	}
}

func TestAdmissionRejectsBadConfig(t *testing.T) {
	cl := twoClasses(1e6)
	arr, classOf := Merge(cl, []int{2, 2})
	for _, fn := range []func(){
		func() { NewAdmission("bogus", cl, arr, classOf, 8, false) },
		func() { NewAdmission(AdmitStrict, cl, arr, classOf, 0, false) },
		func() { NewAdmission(AdmitWFQ, cl, arr[:3], classOf, 8, false) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bad admission config did not panic")
				}
			}()
			fn()
		}()
	}
}
