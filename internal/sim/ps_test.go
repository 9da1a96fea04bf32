package sim

import (
	"math"
	"testing"
)

var inf = math.Inf(1)

// psShapes are the two ways the simulator uses PS: an SMM's issue slots
// (each warp capped at one instruction per cycle) and a bandwidth with no
// per-flow cap (device memory, one PCIe direction).
var psShapes = []struct {
	name    string
	perFlow float64
}{{"issue", 1}, {"bandwidth", inf}}

// runPS runs one concurrent acquirer per entry of works on a PS and returns
// each one's completion time.
func runPS(perFlow, total float64, works []float64) []Time {
	eng := New()
	r := NewPS(eng, perFlow, total)
	done := make([]Time, len(works))
	for i, w := range works {
		eng.Spawn("acq", func(p *Proc) {
			r.Acquire(p, w)
			done[i] = eng.Now()
		})
	}
	eng.Run()
	return done
}

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v (±%v)", msg, got, want, tol)
	}
}

func TestPSSingleRequestFullRate(t *testing.T) {
	// A lone warp issues at rate 1, never faster; a lone flow takes the
	// whole bandwidth.
	for _, c := range []struct {
		perFlow float64
		want    Time
	}{{1, 100}, {inf, 25}} {
		done := runPS(c.perFlow, 4, []float64{100})
		approx(t, done[0], c.want, 1e-6, "single request")
	}
}

func TestPSUpToWidthNoSlowdown(t *testing.T) {
	// Four requests on total 4: each progresses at 1 either way.
	for _, s := range psShapes {
		for _, d := range runPS(s.perFlow, 4, []float64{100, 100, 100, 100}) {
			approx(t, d, 100, 1e-6, s.name+": request under width")
		}
	}
}

func TestPSOversubscribedSharesEqually(t *testing.T) {
	// 8 equal requests on total 4: each progresses at rate 0.5.
	for _, s := range psShapes {
		for _, d := range runPS(s.perFlow, 4, []float64{100, 100, 100, 100, 100, 100, 100, 100}) {
			approx(t, d, 200, 1e-6, s.name+": oversubscribed request")
		}
	}
}

func TestPSShortRequestFreesBandwidth(t *testing.T) {
	// Two requests, total 1: rate 0.5 each. The short one (10) finishes at
	// t=20; the long one then runs at rate 1: 100-10=90 remaining, done 110.
	for _, s := range psShapes {
		done := runPS(s.perFlow, 1, []float64{10, 100})
		approx(t, done[0], 20, 1e-6, s.name+": short request")
		approx(t, done[1], 110, 1e-6, s.name+": long request")
	}
}

func TestPSLateArrival(t *testing.T) {
	for _, s := range psShapes {
		eng := New()
		r := NewPS(eng, s.perFlow, 1)
		var t1, t2 Time
		eng.Spawn("a", func(p *Proc) {
			r.Acquire(p, 100)
			t1 = eng.Now()
		})
		eng.Spawn("b", func(p *Proc) {
			p.Sleep(50)
			r.Acquire(p, 100)
			t2 = eng.Now()
		})
		eng.Run()
		// a runs alone 0-50 (50 done), then shares: both at rate 0.5.
		// a needs 50 more => done at 150. b then runs alone: 50 done at
		// t=150, 50 remaining at rate 1 => done at 200.
		approx(t, t1, 150, 1e-6, s.name+": first request")
		approx(t, t2, 200, 1e-6, s.name+": second request")
	}
}

func TestPSZeroWorkImmediate(t *testing.T) {
	for _, s := range psShapes {
		eng := New()
		r := NewPS(eng, s.perFlow, 4)
		ran := false
		eng.Spawn("z", func(p *Proc) {
			r.Acquire(p, 0)
			ran = true
			if eng.Now() != 0 {
				t.Errorf("%s: zero work advanced time to %v", s.name, eng.Now())
			}
		})
		eng.Run()
		if !ran {
			t.Fatalf("%s: proc never ran", s.name)
		}
	}
}

func TestPSBusyIntegral(t *testing.T) {
	// One warp for 100 cycles holds 1 of 4 issue slots: busy 100, queue
	// 100. One flow takes all 4 units for 25 cycles: busy 100, queue 25.
	for _, c := range []struct {
		perFlow     float64
		busy, queue float64
	}{{1, 100, 100}, {inf, 100, 25}} {
		eng := New()
		r := NewPS(eng, c.perFlow, 4)
		eng.Spawn("a", func(p *Proc) { r.Acquire(p, 100) })
		eng.Run()
		busy, queue := r.Integrals()
		approx(t, busy, c.busy, 1e-6, "busy integral")
		approx(t, queue, c.queue, 1e-6, "queue integral")
	}
}

func TestPSManyStaggered(t *testing.T) {
	// Throughput conservation: total work delivered equals sum of works, and
	// last completion >= total/width.
	works := make([]float64, 40)
	var total float64
	for i := range works {
		works[i] = float64(10 + i*3)
		total += works[i]
	}
	// With per-request caps, the tail (fewer than `width` requests left,
	// each capped at rate 1) keeps the resource from being perfectly
	// work-conserving, but the overshoot is bounded by the longest request.
	// Without caps the resource is work-conserving.
	for _, c := range []struct {
		perFlow   float64
		overshoot float64
	}{{1, works[len(works)-1]}, {inf, 1e-6}} {
		var last Time
		for _, d := range runPS(c.perFlow, 4, works) {
			last = math.Max(last, d)
		}
		if last < total/4-1e-6 {
			t.Fatalf("finished faster than capacity allows: last=%v, lower bound=%v", last, total/4)
		}
		if last > total/4+c.overshoot {
			t.Fatalf("tail overshoot too large: last=%v, bound=%v", last, total/4+c.overshoot)
		}
	}
}

func BenchmarkPS(b *testing.B) {
	for _, s := range psShapes {
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := New()
				r := NewPS(eng, s.perFlow, 4)
				for w := 0; w < 64; w++ {
					eng.Spawn("w", func(p *Proc) {
						for k := 0; k < 20; k++ {
							r.Acquire(p, 100)
							p.Sleep(50)
						}
					})
				}
				eng.Run()
			}
		})
	}
}
