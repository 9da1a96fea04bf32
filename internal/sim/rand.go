package sim

// Rand is the simulator's one seeded pseudo-random generator, a 64-bit
// xorshift. Arrival streams (serve), power-of-two-choices routing (cluster)
// and task-input draws (workloads) all use it, so a seeded sequence is the
// same across Go versions and runs (the randsource rule).
type Rand uint64

// NewRand returns a generator seeded from seed. Every seed, 0 included,
// yields a nonzero state.
func NewRand(seed int64) *Rand {
	x := Rand(uint64(seed)*2685821657736338717 + 0x9E3779B97F4A7C15)
	if x == 0 {
		x = 0x2545F4914F6CDD1D
	}
	return &x
}

// Uint64 advances the generator and returns its new state.
func (x *Rand) Uint64() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = Rand(v)
	return v
}

// Intn returns a draw from [0, n); n must be positive.
func (x *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn bound is not positive")
	}
	return int(x.Uint64() % uint64(n))
}

// Float64 returns a draw from [0, 1) with 53 random bits.
func (x *Rand) Float64() float64 { return float64(x.Uint64()>>11) / (1 << 53) }
