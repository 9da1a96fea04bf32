package serve

import (
	"testing"

	"repro/internal/sim"
)

// TestGeneratorsDeterministic: the committed guarantee of the arrival layer —
// same parameters, same sequence, bit for bit, across repeated calls.
func TestGeneratorsDeterministic(t *testing.T) {
	gens := []Generator{
		FixedRate{Rate: 50e3},
		Poisson{Rate: 50e3, Seed: 1},
		Poisson{Rate: 50e3, Seed: 7},
		Bursty{PeakRate: 200e3, Burst: 16, Gap: 100_000},
	}
	for _, g := range gens {
		a := g.Times(512)
		b := g.Times(512)
		if len(a) != 512 || len(b) != 512 {
			t.Fatalf("%s: wrong length %d/%d", g.Name(), len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: arrival %d differs between calls: %x vs %x", g.Name(), i, a[i], b[i])
			}
			if i > 0 && a[i] < a[i-1] {
				t.Fatalf("%s: arrivals decrease at %d: %v < %v", g.Name(), i, a[i], a[i-1])
			}
		}
		if a[0] <= 0 {
			t.Errorf("%s: first arrival %v not strictly positive", g.Name(), a[0])
		}
	}
}

// TestPoissonSeedAndRate: different seeds give different sequences; the
// empirical mean gap tracks 1/rate within a loose statistical bound.
func TestPoissonSeedAndRate(t *testing.T) {
	a := Poisson{Rate: 50e3, Seed: 1}.Times(4096)
	b := Poisson{Rate: 50e3, Seed: 2}.Times(4096)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > len(a)/100 {
		t.Errorf("different seeds share %d/%d arrival instants", same, len(a))
	}
	meanGap := a[len(a)-1] / float64(len(a))
	want := cyclesPerSecond / 50e3
	if meanGap < want*0.9 || meanGap > want*1.1 {
		t.Errorf("poisson mean gap %v cycles, want within 10%% of %v", meanGap, want)
	}
}

// TestFixedRateSpacing pins the deterministic generator exactly.
func TestFixedRateSpacing(t *testing.T) {
	a := FixedRate{Rate: 1e6}.Times(4) // 1 task/us => 1000-cycle gaps
	for i, want := range []sim.Time{1000, 2000, 3000, 4000} {
		if a[i] != want {
			t.Errorf("arrival %d = %v, want %v", i, a[i], want)
		}
	}
}

// TestBurstyShape: bursts are tightly spaced, gaps separate them, and the
// whole sequence is reproducible.
func TestBurstyShape(t *testing.T) {
	g := Bursty{PeakRate: 1e6, Burst: 4, Gap: 50_000}
	a := g.Times(8)
	if d := a[3] - a[0]; d != 3000 {
		t.Errorf("intra-burst span = %v, want 3000", d)
	}
	if d := a[4] - a[3]; d != 51_000 {
		t.Errorf("inter-burst gap = %v, want 51000 (gap + peak spacing)", d)
	}
}

// TestTraceReplay: replay returns the recorded prefix and rejects
// out-of-order traces.
func TestTraceReplay(t *testing.T) {
	tr := Trace{Label: "prod", At: []sim.Time{10, 20, 20, 40}}
	a := tr.Times(3)
	if a[0] != 10 || a[1] != 20 || a[2] != 20 {
		t.Errorf("trace replay = %v", a)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unsorted trace did not panic")
			}
		}()
		Trace{At: []sim.Time{10, 5}}.Times(2)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("short trace did not panic")
			}
		}()
		tr.Times(5)
	}()
}

// TestPercentileExact pins the nearest-rank definition on a tiny vector.
func TestPercentileExact(t *testing.T) {
	v := []sim.Time{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		q    float64
		want sim.Time
	}{{0.50, 5}, {0.90, 9}, {0.99, 10}, {1.0, 10}, {0.01, 1}}
	for _, c := range cases {
		if got := Percentile(v, c.q); got != c.want {
			t.Errorf("p%v = %v, want %v", c.q*100, got, c.want)
		}
	}
}

// TestSummarize covers the latency decomposition, SLO accounting and drops.
func TestSummarize(t *testing.T) {
	recs := []Record{
		{Submit: 0, Start: 10, Done: 110},     // wait 10, service 100, latency 110
		{Submit: 0, Start: 50, Done: 250},     // latency 250
		{Submit: 100, Start: 100, Done: 1100}, // latency 1000
		{Dropped: true},
	}
	s := Summarize(recs, 500)
	if s.Offered != 4 || s.Dropped != 1 || s.Completed != 3 {
		t.Fatalf("counts = %+v", s)
	}
	if s.P50 != 250 || s.P99 != 1000 || s.Max != 1000 {
		t.Errorf("percentiles: p50=%v p99=%v max=%v", s.P50, s.P99, s.Max)
	}
	wantMean := sim.Time((110 + 250 + 1000) / 3.0)
	if s.Mean != wantMean {
		t.Errorf("mean = %v, want %v", s.Mean, wantMean)
	}
	if s.MeanWait != sim.Time(10+50+0)/3 {
		t.Errorf("mean wait = %v", s.MeanWait)
	}
	if s.MeanService != sim.Time(100+200+1000)/3 {
		t.Errorf("mean service = %v", s.MeanService)
	}
	if s.SLOMet != 2 {
		t.Errorf("SLOMet = %d, want 2", s.SLOMet)
	}
	if s.Goodput != 0.5 {
		t.Errorf("goodput = %v, want 0.5 (2 of 4 offered within SLO)", s.Goodput)
	}
	if s.SLOSatisfied() {
		t.Error("run with p99 > SLO and drops reported as sustainable")
	}
}

// TestSummarizeEmptyAndAllDropped: degenerate runs must not divide by zero.
func TestSummarizeEmptyAndAllDropped(t *testing.T) {
	if s := Summarize(nil, 100); s.Completed != 0 || s.Goodput != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	s := Summarize([]Record{{Dropped: true}, {Dropped: true}}, 100)
	if s.Completed != 0 || s.Dropped != 2 || s.SLOSatisfied() {
		t.Errorf("all-dropped summary = %+v", s)
	}
}

// TestAdmissionPolicies exercises each admission rule directly.
func TestAdmissionPolicies(t *testing.T) {
	q := BoundedQueue{Limit: 2}
	if !q.Admit(0, 0) || !q.Admit(0, 1) || q.Admit(0, 2) {
		t.Error("bounded queue decisions wrong")
	}

	// Token bucket at 1000 tokens/s, burst 2: two immediate admits, then a
	// reject, then a refill after 1 ms of virtual time.
	tb := NewTokenBucket(1000, 2)
	if !tb.Admit(0, 0) || !tb.Admit(0, 0) {
		t.Error("token bucket rejected within burst")
	}
	if tb.Admit(0, 0) {
		t.Error("token bucket admitted past burst with no refill")
	}
	if !tb.Admit(1e6, 0) { // 1 ms later: 1 token refilled
		t.Error("token bucket did not refill over virtual time")
	}
	if tb.Admit(1e6, 0) {
		t.Error("token bucket over-refilled")
	}
}

// TestMaxSustainable pins the prefix rule of the capacity sweep.
func TestMaxSustainable(t *testing.T) {
	rates := []float64{1, 2, 4, 8}
	cases := []struct {
		ok   []bool
		want float64
	}{
		{[]bool{true, true, true, true}, 8},
		{[]bool{true, true, false, true}, 2}, // lucky cell past saturation ignored
		{[]bool{false, true, true, true}, 0},
		{[]bool{true, false, false, false}, 1},
	}
	for _, c := range cases {
		if got := MaxSustainable(rates, c.ok); got != c.want {
			t.Errorf("MaxSustainable(%v) = %v, want %v", c.ok, got, c.want)
		}
	}
}

// TestMaxSustainableEmptyLadder pins the degenerate sweep: an empty rate
// ladder has no sustainable rate and must report 0, not panic — the
// pagodaperf gate feeds capacity sweeps through here and an empty ladder is
// a legal (if useless) configuration.
func TestMaxSustainableEmptyLadder(t *testing.T) {
	if got := MaxSustainable(nil, nil); got != 0 {
		t.Errorf("MaxSustainable(nil, nil) = %v, want 0", got)
	}
	if got := MaxSustainable([]float64{}, []bool{}); got != 0 {
		t.Errorf("MaxSustainable(empty) = %v, want 0", got)
	}
}
