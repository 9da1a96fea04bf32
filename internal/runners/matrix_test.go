package runners

import (
	"testing"

	"repro/internal/workloads"
)

// TestVerificationMatrix runs every benchmark's real computation under every
// registered GPU execution scheme plus static fusion and the CPU pool,
// verifying all results — the integration matrix for the whole repository:
// 9 workloads x 6 schemes.
func TestVerificationMatrix(t *testing.T) {
	schemes := []struct {
		name string
		fn   func([]workloads.TaskDef, Config) Result
	}{
		{"fusion", RunFusion},
		{"pthreads", RunPThreads},
	}
	for _, s := range Schemes() {
		schemes = append(schemes, struct {
			name string
			fn   func([]workloads.TaskDef, Config) Result
		}{s.Key, s.Run})
	}
	names := []string{"MB", "FB", "BF", "CONV", "DCT", "MM", "SLUD", "3DES", "MPE"}
	for _, name := range names {
		b, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range schemes {
			s, b, name := s, b, name
			t.Run(name+"/"+s.name, func(t *testing.T) {
				opt := workloads.Options{Tasks: 10, Verify: true, Seed: 21, InputSize: 32}
				if name == "FB" || name == "BF" {
					opt.InputSize = 512
				}
				if name == "3DES" || name == "SLUD" || name == "MPE" {
					opt.InputSize = 0 // these size themselves
				}
				// Shared-memory variants only where the scheme supports it.
				if b.SupportsShared && s.name != "gemtc" && s.name != "pthreads" {
					opt.UseShared = true
				}
				tasks := b.Make(opt)
				cfg := smallCfg()
				r := s.fn(tasks, cfg)
				if r.Tasks != len(tasks) {
					t.Fatalf("completed %d of %d", r.Tasks, len(tasks))
				}
				for i, td := range tasks {
					if td.Check == nil {
						t.Fatalf("task %d missing Check", i)
					}
					if err := td.Check(); err != nil {
						t.Fatalf("task %d: %v", i, err)
					}
				}
			})
		}
	}
}

// TestIrregularMatrix repeats the matrix with §6.3-style pseudo-random input
// sizes and dynamic thread counts for the schemes that support them.
func TestIrregularMatrix(t *testing.T) {
	for _, s := range []struct {
		name string
		fn   func([]workloads.TaskDef, Config) Result
	}{
		{"pagoda", RunPagoda},
		{"hyperq", RunHyperQ},
		{"fusion", RunFusion},
	} {
		s := s
		t.Run(s.name, func(t *testing.T) {
			for _, name := range []string{"MB", "CONV", "MM", "3DES"} {
				b, _ := workloads.ByName(name)
				tasks := b.Make(workloads.Options{Tasks: 8, Verify: true, Irregular: true, Seed: 33})
				r := s.fn(tasks, smallCfg())
				if r.Tasks != 8 {
					t.Fatalf("%s: completed %d of 8", name, r.Tasks)
				}
				for i, td := range tasks {
					if err := td.Check(); err != nil {
						t.Fatalf("%s task %d: %v", name, i, err)
					}
				}
			}
		})
	}
}

// TestXFMRVerifyAcrossTokenCounts checks the transformer layer's real math
// under every GPU scheme and fusion at sequence lengths on both sides of one
// warp's worth of token rows. Above 32 tokens a second warp owns rows that
// the first reads after a barrier, so the layer is only right if the warps
// of one task execution share their intermediate buffers.
func TestXFMRVerifyAcrossTokenCounts(t *testing.T) {
	b, err := workloads.ByName("XFMR")
	if err != nil {
		t.Fatal(err)
	}
	runs := append(Schemes(), Scheme{Key: "fusion", Run: RunFusion})
	for _, tokens := range []int{16, 32, 48, 64} {
		for _, sc := range runs {
			tasks := b.Make(workloads.Options{Tasks: 4, Verify: true, Seed: 3, InputSize: tokens})
			if r := sc.Run(tasks, smallCfg()); r.Tasks != len(tasks) {
				t.Fatalf("%s/%d tokens: completed %d of %d", sc.Key, tokens, r.Tasks, len(tasks))
			}
			for i, td := range tasks {
				if err := td.Check(); err != nil {
					t.Errorf("%s/%d tokens: task %d: %v", sc.Key, tokens, i, err)
				}
			}
		}
	}
}
