package workloads

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/pcie"
	"repro/internal/sim"
)

func TestMLBenchmarksListed(t *testing.T) {
	names := []string{"XFMR", "GEMM"}
	ml := ML()
	if len(ml) != len(names) {
		t.Fatalf("ML() returned %d benchmarks, want %d", len(ml), len(names))
	}
	for i, b := range ml {
		if b.Name != names[i] {
			t.Errorf("ML()[%d] = %s, want %s", i, b.Name, names[i])
		}
		if _, err := ByName(b.Name); err != nil {
			t.Errorf("ByName(%s): %v", b.Name, err)
		}
	}
	// All() stays the Table 3 set: the ML kernels must not leak into it.
	for _, b := range All() {
		for _, name := range names {
			if b.Name == name {
				t.Errorf("ML benchmark %s leaked into All()", name)
			}
		}
	}
}

func TestSoftmaxRowNormalizes(t *testing.T) {
	s := []float32{1, 2, 3, 4, 1000, 1001, 1002, 1003}
	softmaxRow(s, 0, 4)
	softmaxRow(s, 1, 4) // large magnitudes: max-subtract must not overflow
	for row := 0; row < 2; row++ {
		var sum float64
		for j := 0; j < 4; j++ {
			v := float64(s[row*4+j])
			if math.IsNaN(v) || v < 0 {
				t.Fatalf("softmax row %d element %d = %v", row, j, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("softmax row %d sums to %v, want 1", row, sum)
		}
		// Monotone inputs give monotone probabilities.
		for j := 1; j < 4; j++ {
			if s[row*4+j] <= s[row*4+j-1] {
				t.Fatalf("softmax row %d not monotone at %d", row, j)
			}
		}
	}
}

func TestXfmrRefUniformAttention(t *testing.T) {
	// With zero Q/K projections the attention scores are all zero, softmax
	// becomes uniform, and the context is the mean of the V rows — an exact
	// closed form for the attention half of the reference.
	s, d, f := 4, 8, 16
	x := make([]float32, s*d)
	rng := sim.NewRand(9)
	for i := range x {
		x[i] = float32(rng.Float64()*2 - 1)
	}
	zero := make([]float32, d*d)
	id := make([]float32, d*d)
	for i := 0; i < d; i++ {
		id[i*d+i] = 1
	}
	// wv = wo = identity, w1 picks the first d columns, w2 its transpose:
	// the FFN halves cancel for non-negative inputs.
	w1 := make([]float32, d*f)
	w2 := make([]float32, f*d)
	for i := 0; i < d; i++ {
		w1[i*f+i] = 1
		w2[i*d+i] = 1
	}
	got := xfmrRef(x, zero, zero, id, id, w1, w2, s, d, f)
	mean := make([]float32, d)
	for j := 0; j < d; j++ {
		var acc float32
		for i := 0; i < s; i++ {
			acc += x[i*d+j]
		}
		mean[j] = acc / float32(s)
	}
	for i := 0; i < s; i++ {
		for j := 0; j < d; j++ {
			want := mean[j]
			if want < 0 {
				want = 0 // the identity FFN keeps only the ReLU-positive part
			}
			if math.Abs(float64(got[i*d+j]-want)) > 1e-5 {
				t.Fatalf("row %d col %d: got %v, want %v", i, j, got[i*d+j], want)
			}
		}
	}
}

func TestGemmChainRefIdentity(t *testing.T) {
	// Identity-embedded weights pass non-negative inputs through unchanged.
	m := 4
	x := make([]float32, m*gemmChainDims[0])
	rng := sim.NewRand(3)
	for i := range x {
		x[i] = float32(rng.Float64()) // non-negative: ReLU transparent
	}
	var ws [3][]float32
	for l := 0; l < 3; l++ {
		k, n := gemmChainDims[l], gemmChainDims[l+1]
		ws[l] = make([]float32, k*n)
		for i := 0; i < k && i < n; i++ {
			ws[l][i*n+i] = 1
		}
	}
	got := gemmChainRef(x, ws, m)
	for i := 0; i < m; i++ {
		for j := 0; j < gemmChainDims[3]; j++ {
			if math.Abs(float64(got[i*gemmChainDims[3]+j]-x[i*gemmChainDims[0]+j])) > 1e-6 {
				t.Fatalf("chain altered element (%d,%d)", i, j)
			}
		}
	}
}

// TestMLVerifyModeThroughPagoda runs both ML benchmarks end-to-end through
// the real Pagoda runtime in verify mode, like TestVerifyModeThroughPagoda
// does for the Table 3 set: scheduler, barriers and the staged row-parallel
// kernels all in one.
func TestMLVerifyModeThroughPagoda(t *testing.T) {
	for _, b := range ML() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			eng := sim.New()
			gcfg := gpu.TitanX()
			gcfg.NumSMMs = 2
			dev := gpu.NewDevice(eng, gcfg)
			bus := pcie.New(eng, pcie.Default())
			ctx := cuda.NewContext(eng, dev, bus, cuda.DefaultConfig())
			rt := core.NewRuntime(ctx, core.DefaultConfig())

			tasks := b.Make(Options{Tasks: 8, Verify: true, Seed: 3})
			eng.Spawn("host", func(p *sim.Proc) {
				for i := range tasks {
					td := tasks[i]
					rt.TaskSpawn(p, core.TaskSpec{
						Threads:   td.Threads,
						Blocks:    td.Blocks,
						SharedMem: td.SharedMem,
						Sync:      td.Sync,
						ArgBytes:  td.ArgBytes,
						Kernel:    func(tc *core.TaskCtx) { td.Kernel(tc) },
					})
				}
				rt.WaitAll(p)
				rt.Shutdown(p)
			})
			eng.Run()

			for i, td := range tasks {
				if td.Check == nil {
					t.Fatalf("task %d has no Check in verify mode", i)
				}
				if err := td.Check(); err != nil {
					t.Fatalf("task %d: %v", i, err)
				}
			}
		})
	}
}

func TestMLCPURunMatchesCheck(t *testing.T) {
	for _, b := range ML() {
		for i, td := range b.Make(Options{Tasks: 4, Verify: true, Seed: 5}) {
			if td.CPURun == nil {
				t.Fatalf("%s task %d has no CPURun in verify mode", b.Name, i)
			}
			td.CPURun()
			if err := td.Check(); err != nil {
				t.Errorf("%s task %d: %v", b.Name, i, err)
			}
		}
	}
}

func TestMLGenerationProperties(t *testing.T) {
	for _, b := range ML() {
		tasks := b.Make(Options{Tasks: 16, Seed: 1})
		if len(tasks) != 16 {
			t.Fatalf("%s: Make produced %d tasks, want 16", b.Name, len(tasks))
		}
		for i, td := range tasks {
			if td.Kernel == nil || td.CPUCycles <= 0 || td.InBytes <= 0 || td.OutBytes <= 0 {
				t.Errorf("%s task %d is malformed: %+v", b.Name, i, td)
			}
			if !td.Sync {
				t.Errorf("%s task %d must require barriers (staged kernel)", b.Name, i)
			}
		}
		// Irregular mode varies request sizes.
		irr := b.Make(Options{Tasks: 64, Irregular: true, Seed: 9})
		sizes := map[int]bool{}
		for _, td := range irr {
			sizes[td.InBytes] = true
		}
		if len(sizes) < 2 {
			t.Errorf("%s: irregular mode produced only %d distinct input sizes", b.Name, len(sizes))
		}
		// Deterministic generation.
		a := b.Make(Options{Tasks: 10, Irregular: true, Seed: 77})
		c := b.Make(Options{Tasks: 10, Irregular: true, Seed: 77})
		for i := range a {
			if a[i].InBytes != c[i].InBytes || a[i].Threads != c[i].Threads || a[i].CPUCycles != c[i].CPUCycles {
				t.Errorf("%s: task %d differs across identical seeds", b.Name, i)
			}
		}
	}
}
