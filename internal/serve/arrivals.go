package serve

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// cyclesPerSecond converts task rates (tasks/second) to the engine's clock
// (1 cycle = 1 ns at 1 GHz).
const cyclesPerSecond = 1e9

// A Generator produces the arrival timestamp sequence of an open-loop
// workload: Times(n) returns n nondecreasing virtual-cycle instants at which
// tasks 0..n-1 enter the system. Generators are pure values — the same
// generator produces the same sequence every call, so experiment cells can
// regenerate arrivals independently and byte-identically at any harness
// parallelism.
//
// Validate reports a descriptive error when the generator's parameters can
// produce no usable sequence (non-positive or non-finite rates, durations or
// amplitudes). Times panics with the same message: a bad rate would otherwise
// loop forever in the rejection samplers or silently emit a zero/Inf arrival
// schedule, and CLI layers should have called Validate first.
type Generator interface {
	Name() string
	Times(n int) []sim.Time
	Validate() error
}

// mustValidate is the Times-side guard: generators are plain values, so a
// misparameterized one reaching Times is a programming error worth a panic
// carrying the same descriptive message Validate returns. It takes the error
// rather than the Generator so the concrete value is not boxed into the
// interface on the hot path (the arrivals benchmarks pin 1 alloc/op).
func mustValidate(err error) {
	if err != nil {
		panic(err.Error())
	}
}

// rateErr rejects rates that are not positive finite tasks/second.
func rateErr(what string, rate float64) error {
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return fmt.Errorf("serve: %s %v is not a positive finite tasks/second", what, rate)
	}
	return nil
}

// durErr rejects durations that are not positive finite cycles.
func durErr(what string, d sim.Time) error {
	if d <= 0 || math.IsNaN(d) || math.IsInf(d, 0) {
		return fmt.Errorf("serve: %s %v is not a positive finite cycle count", what, d)
	}
	return nil
}

// FixedRate spaces arrivals exactly 1/Rate seconds apart — the deterministic
// baseline process (a perfectly paced load generator).
type FixedRate struct {
	Rate float64 // tasks per second
}

// Name implements Generator.
func (g FixedRate) Name() string { return fmt.Sprintf("fixed@%g/s", g.Rate) }

// Validate implements Generator.
func (g FixedRate) Validate() error { return rateErr("fixed-rate arrival rate", g.Rate) }

// Times implements Generator. The first arrival lands one interval in, so a
// zero-time submission burst never occurs.
func (g FixedRate) Times(n int) []sim.Time {
	mustValidate(g.Validate())
	gap := cyclesPerSecond / g.Rate
	out := make([]sim.Time, n)
	for i := range out {
		out[i] = sim.Time(i+1) * gap
	}
	return out
}

// Poisson draws exponential inter-arrival gaps with mean 1/Rate from a
// seeded PRNG — the memoryless arrival process of classic open-loop serving
// studies. Identical (Rate, Seed) pairs produce identical sequences.
type Poisson struct {
	Rate float64 // tasks per second
	Seed int64
}

// Name implements Generator.
func (g Poisson) Name() string { return fmt.Sprintf("poisson@%g/s", g.Rate) }

// Validate implements Generator.
func (g Poisson) Validate() error { return rateErr("poisson arrival rate", g.Rate) }

// Times implements Generator via inverse-CDF sampling: gap = -ln(1-u)/rate.
func (g Poisson) Times(n int) []sim.Time {
	mustValidate(g.Validate())
	r := sim.NewRand(g.Seed)
	gap := cyclesPerSecond / g.Rate
	out := make([]sim.Time, n)
	t := sim.Time(0)
	for i := range out {
		t += -math.Log(1-r.Float64()) * gap
		out[i] = t
	}
	return out
}

// Bursty emits on-off traffic: bursts of Burst arrivals spaced at PeakRate,
// separated by Gap idle cycles — the antagonistic pattern for schemes whose
// spawn path amortizes poorly (batch launchers see either a full batch or a
// straggler).
type Bursty struct {
	PeakRate float64  // tasks per second within a burst
	Burst    int      // arrivals per burst
	Gap      sim.Time // idle cycles between bursts
}

// Name implements Generator.
func (g Bursty) Name() string {
	return fmt.Sprintf("bursty@%g/s x%d +%gns", g.PeakRate, g.Burst, g.Gap)
}

// Validate implements Generator.
func (g Bursty) Validate() error {
	if err := rateErr("bursty peak rate", g.PeakRate); err != nil {
		return err
	}
	if g.Burst <= 0 {
		return fmt.Errorf("serve: bursty burst size %d is not positive", g.Burst)
	}
	if g.Gap < 0 || math.IsNaN(g.Gap) || math.IsInf(g.Gap, 0) {
		return fmt.Errorf("serve: bursty inter-burst gap %v is not a finite non-negative cycle count", g.Gap)
	}
	return nil
}

// Times implements Generator.
func (g Bursty) Times(n int) []sim.Time {
	mustValidate(g.Validate())
	peakGap := cyclesPerSecond / g.PeakRate
	out := make([]sim.Time, n)
	t := sim.Time(0)
	for i := range out {
		if i > 0 && i%g.Burst == 0 {
			t += g.Gap
		}
		t += peakGap
		out[i] = t
	}
	return out
}

// Diurnal draws arrivals from a nonhomogeneous Poisson process whose rate
// follows a sinusoidal daily curve: rate(t) = MeanRate * (1 + Swing *
// sin(2*pi*t/Period)) — the production traffic shape where load doubles at
// the peak of the day and drains overnight. Swing is the relative amplitude
// in [0, 1]: 0 degenerates to plain Poisson, 1 makes the trough go idle.
// Sampling is by thinning against the peak rate, so the sequence is exact
// and deterministic per (MeanRate, Swing, Period, Seed).
type Diurnal struct {
	MeanRate float64  // tasks per second averaged over a full period
	Swing    float64  // relative amplitude in [0, 1]
	Period   sim.Time // cycles per simulated "day"
	Seed     int64
}

// Name implements Generator.
func (g Diurnal) Name() string {
	return fmt.Sprintf("diurnal@%g/s~%g per%gns", g.MeanRate, g.Swing, g.Period)
}

// Validate implements Generator.
func (g Diurnal) Validate() error {
	if err := rateErr("diurnal mean rate", g.MeanRate); err != nil {
		return err
	}
	if g.Swing < 0 || g.Swing > 1 || math.IsNaN(g.Swing) {
		return fmt.Errorf("serve: diurnal swing %v outside [0, 1]", g.Swing)
	}
	return durErr("diurnal period", g.Period)
}

// rate returns the instantaneous arrival rate at t, tasks/second.
func (g Diurnal) rate(t sim.Time) float64 {
	return g.MeanRate * (1 + g.Swing*math.Sin(2*math.Pi*t/g.Period))
}

// Times implements Generator.
func (g Diurnal) Times(n int) []sim.Time {
	mustValidate(g.Validate())
	return thinned(n, g.Seed, g.MeanRate*(1+g.Swing), g.rate)
}

// FlashCrowd overlays a flash-crowd spike on steady Poisson traffic: the
// rate is BaseRate everywhere except [SpikeAt, SpikeAt+SpikeDur), where it
// jumps to SpikeRate — the viral-moment shape that stresses admission
// control far harder than stationary overload, because the system enters
// the spike with a drained queue and no warning.
type FlashCrowd struct {
	BaseRate  float64  // steady background rate, tasks per second
	SpikeRate float64  // rate while the crowd lasts
	SpikeAt   sim.Time // spike onset, cycles
	SpikeDur  sim.Time // spike duration, cycles
	Seed      int64
}

// Name implements Generator.
func (g FlashCrowd) Name() string {
	return fmt.Sprintf("flash@%g/s^%g/s@%gns+%gns", g.BaseRate, g.SpikeRate, g.SpikeAt, g.SpikeDur)
}

// Validate implements Generator.
func (g FlashCrowd) Validate() error {
	if err := rateErr("flash-crowd base rate", g.BaseRate); err != nil {
		return err
	}
	if err := rateErr("flash-crowd spike rate", g.SpikeRate); err != nil {
		return err
	}
	if g.SpikeAt < 0 || math.IsNaN(g.SpikeAt) || math.IsInf(g.SpikeAt, 0) {
		return fmt.Errorf("serve: flash-crowd onset %v is not a finite non-negative instant", g.SpikeAt)
	}
	return durErr("flash-crowd spike duration", g.SpikeDur)
}

// rate returns the instantaneous arrival rate at t, tasks/second.
func (g FlashCrowd) rate(t sim.Time) float64 {
	if t >= g.SpikeAt && t < g.SpikeAt+g.SpikeDur {
		return g.SpikeRate
	}
	return g.BaseRate
}

// Times implements Generator.
func (g FlashCrowd) Times(n int) []sim.Time {
	mustValidate(g.Validate())
	return thinned(n, g.Seed, math.Max(g.BaseRate, g.SpikeRate), g.rate)
}

// thinned samples n arrivals from a nonhomogeneous Poisson process with
// instantaneous rate rate(t) <= peak by Lewis–Shedler thinning: candidates
// are drawn at the peak rate and accepted with probability rate(t)/peak.
// Each candidate consumes exactly two PRNG draws, so the sequence is a pure
// function of (n, seed, peak, rate). The candidate clock strictly advances
// every iteration (peak is validated positive finite by the callers), so
// the loop always terminates.
func thinned(n int, seed int64, peak float64, rate func(sim.Time) float64) []sim.Time {
	r := sim.NewRand(seed)
	gap := cyclesPerSecond / peak
	out := make([]sim.Time, 0, n)
	t := sim.Time(0)
	for len(out) < n {
		t += -math.Log(1-r.Float64()) * gap
		if r.Float64()*peak < rate(t) {
			out = append(out, t)
		}
	}
	return out
}

// Trace replays a recorded arrival sequence (e.g. captured from a production
// log, or the Times of another generator dumped to disk). The sequence must
// be nondecreasing.
type Trace struct {
	Label string
	At    []sim.Time
}

// Name implements Generator.
func (g Trace) Name() string {
	if g.Label != "" {
		return "trace:" + g.Label
	}
	return fmt.Sprintf("trace[%d]", len(g.At))
}

// Validate implements Generator: the recorded instants must be finite,
// non-negative and nondecreasing. Length-vs-n is checked by Times, which
// knows how many arrivals the run wants.
func (g Trace) Validate() error {
	for i, at := range g.At {
		if at < 0 || math.IsNaN(at) || math.IsInf(at, 0) {
			return fmt.Errorf("serve: trace arrival %d (%v) is not a finite non-negative instant", i, at)
		}
		if i > 0 && at < g.At[i-1] {
			return fmt.Errorf("serve: trace arrivals decrease at %d: %v < %v", i, at, g.At[i-1])
		}
	}
	return nil
}

// Times implements Generator; it returns a copy of the first n recorded
// instants and panics if the trace is shorter than n or not sorted.
func (g Trace) Times(n int) []sim.Time {
	mustValidate(g.Validate())
	if len(g.At) < n {
		panic(fmt.Sprintf("serve: trace has %d arrivals, need %d", len(g.At), n))
	}
	out := make([]sim.Time, n)
	copy(out, g.At[:n])
	return out
}

func checkRate(rate float64) {
	if err := rateErr("arrival rate", rate); err != nil {
		panic(err.Error())
	}
}
