package runners

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/workloads"
)

// TestDeterminismGolden pins the final virtual times of a small fig5/fig6
// matrix to exact bit patterns (hex float literals). The simulation is
// specified to be deterministic (DESIGN.md decision #1): same seed, same
// config, same binary => byte-identical results. Any engine change that
// shifts event ordering — heap arity, timer re-keying, baton handoff — must
// keep these values bit-for-bit; a legitimate *model* change that moves them
// needs these constants re-captured and the shift explained in the PR.
func TestDeterminismGolden(t *testing.T) {
	cfg := DefaultConfig()

	type runnerFn func([]workloads.TaskDef, Config) Result
	runAll := func(name string, tasks int, want map[string]float64, fns map[string]runnerFn) {
		b, err := workloads.ByName(name)
		if err != nil {
			t.Fatalf("workload %q: %v", name, err)
		}
		opt := workloads.Options{Tasks: tasks, Threads: 128, Seed: 1, UseShared: b.SupportsShared}
		for sys, fn := range fns {
			wantV, pinned := want[sys]
			if !pinned {
				continue
			}
			got := float64(fn(b.Make(opt), cfg).Elapsed)
			if got != wantV {
				t.Errorf("%s/%s tasks=%d: Elapsed = %x (%v), want %x (%v)",
					name, sys, tasks, got, got, wantV, wantV)
			}
		}
	}

	all := map[string]runnerFn{
		"pagoda":   RunPagoda,
		"hyperq":   RunHyperQ,
		"gemtc":    RunGeMTC,
		"pthreads": RunPThreads,
	}
	pgHq := map[string]runnerFn{"pagoda": RunPagoda, "hyperq": RunHyperQ}

	// fig5-style: 128 tasks across all four systems.
	runAll("MB", 128, map[string]float64{
		"pagoda":   0x1.df8d111111111p+18,
		"hyperq":   0x1.12669b4c1aaf2p+19,
		"gemtc":    0x1.92735fa6f984ep+19,
		"pthreads": 0x1.2dca827627628p+22,
	}, all)
	runAll("DCT", 128, map[string]float64{
		"pagoda":   0x1.97eb191919191p+19,
		"hyperq":   0x1.b1a862cace8adp+19,
		"gemtc":    0x1.762fp+20,
		"pthreads": 0x1.c7d2c4ec4ec5p+19,
	}, all)
	runAll("3DES", 128, map[string]float64{
		"pagoda":   0x1.4377196053ddp+18,
		"hyperq":   0x1.2487e8c348d6cp+18,
		"gemtc":    0x1.17bbbd8216a78p+19,
		"pthreads": 0x1.cea3189d89d8ap+21,
	}, all)

	// fig6-style weak scaling: Pagoda vs HyperQ at two task counts.
	runAll("MB", 64, map[string]float64{
		"pagoda": 0x1.2ab841041041p+18,
		"hyperq": 0x1.4a6b580f13e29p+18,
	}, pgHq)
	runAll("CONV", 64, map[string]float64{
		"pagoda": 0x1.f9beep+18,
		"hyperq": 0x1.eb7d378d66156p+18,
	}, pgHq)
	runAll("MB", 256, map[string]float64{
		"pagoda": 0x1.a8ec000000005p+19,
		"hyperq": 0x1.e7ac80ccdb7fp+19,
	}, pgHq)
	runAll("CONV", 256, map[string]float64{
		"pagoda": 0x1.8d0b355555555p+20,
		"hyperq": 0x1.94da41b77bd08p+20,
	}, pgHq)
}

// resultGoldenDigests pins every field of the closed-loop Result — latency
// order statistics, occupancy and issue utilisation as well as Elapsed — as
// SHA-256 digests keyed runner/benchmark/copy-mode.
var resultGoldenDigests = map[string]string{
	"fusion/3DES/copy=false":          "09e204e7a541f43474749591d937482e1cb376c15739cd26b6bd5d7346e6bca1",
	"fusion/3DES/copy=true":           "2ce7deb08b3d2e4a11f411c2d72c8ecdb68f6ec7321d394dddd8552c6d2d8004",
	"fusion/DCT/copy=false":           "4d1bf458f2a486c8790324e66a9292ce6e3fc3ed0efd75049903c1de1acf2d34",
	"fusion/DCT/copy=true":            "e564d4414b0a5dbd3a342d8df5d60395221cecc3dd2de5e13b939d6ef95c7f7d",
	"fusion/MB/copy=false":            "5dbe78a365f75fabcbccdf3cdb173a91b68caecfbbc3235a7e88aa16be6ca8c3",
	"fusion/MB/copy=true":             "3454aade1c07489c7f35fa9505624e6a933f603d5b0081baa80ba7529fd34fb1",
	"gemtc/3DES/copy=false":           "75ecd7164a10830fef6719c449c8e653fe0e01d90456df192119da060017789f",
	"gemtc/3DES/copy=true":            "5e1f9a5c1b13945abb841b2f2d20002b6e25a4850562b058ed774feaeaf55382",
	"gemtc/DCT/copy=false":            "dcda15eaee1a3f09d5da2338e5b11e3f777de801080a4a9242d829ade9408076",
	"gemtc/DCT/copy=true":             "c215884c9e242965d1aba8b03213a9c1b88a129fa589acf42a35425520c5fd58",
	"gemtc/MB/copy=false":             "5d6587b5880f820b5b02bec5199e877e15fec5724ec5b3037be92adc2dc0d4a7",
	"gemtc/MB/copy=true":              "b528a33150e889d2e9ca3abc1412e0ea19e7dad15bf0d8154419179194b76d0d",
	"hyperq/3DES/copy=false":          "773443ff6d7b51646b5d27294c4f86cc36753882e594d58aa260e596cd796263",
	"hyperq/3DES/copy=true":           "b492a91ec9b7bdf1b41b03e77be59189c6f8922b6f3b2e095d7f11d769f69055",
	"hyperq/DCT/copy=false":           "73e102ab9cae364b21828617db1cbb059b3861809dc23d7b2318e686ef004e82",
	"hyperq/DCT/copy=true":            "3eccfbc9fb1df213f3ec683316915186ec3148f7376fde9fceaa6b9a2bbe19a5",
	"hyperq/MB/copy=false":            "f1ed7e3296f85ec8a4307142cc4600a4a9b1ac8a9909d848c4f929e1bf0b5cb0",
	"hyperq/MB/copy=true":             "dffdb4ee9049fecac297a5ec199daba796d90f390220bb2334d320b1e320cbb4",
	"pagoda-batching/3DES/copy=false": "1dff955cdb13c8ed8b29decf6ba5feb2fa9c1687ecc42f1ae6511707d42ab5f2",
	"pagoda-batching/3DES/copy=true":  "70f063652885b76bf8bc8d26f149bdda6aec587ab3a101132f5371b9a0950420",
	"pagoda-batching/DCT/copy=false":  "9aff4aea404e0acb0615181b2afe044e7918b491a8a67be5a0bd46fb4f68dd73",
	"pagoda-batching/DCT/copy=true":   "083aa2ca2fceaf64cd9c2212ab7c1b9281ed922065d900c6f83e9bb63422050f",
	"pagoda-batching/MB/copy=false":   "d65990fa8ee91543223338193891f38bb2e168c7d6e3e4536ad043a560827510",
	"pagoda-batching/MB/copy=true":    "979fda1d4bfc50403ae2ebce2011550a021a9ec79819e755778f9a2f757fc829",
	"pagoda/3DES/copy=false":          "7b80e4363233510ce7db6fb0c38c563eedcd8754ae94d4b5c003f3a9d4777cf4",
	"pagoda/3DES/copy=true":           "ff1e3e16edd27959768219464ff1614b008a73b7d0a1dde413e874851eec54f0",
	"pagoda/DCT/copy=false":           "ac03ef8b9b3b5be5f0bd36792ad585f391bf7102840019baf85e52f618b8fc3d",
	"pagoda/DCT/copy=true":            "3e788e16553369454c298698c3118af8796b2e8bdc2b42829540841c03e30e95",
	"pagoda/MB/copy=false":            "37a75d054ceefa44f8636b15cf02aa551153c02aa28bef21beb09da963d2820a",
	"pagoda/MB/copy=true":             "018e4e16227b542aef35b66c5f7a580f8780f91d4bceb0c1ffaa57452c2ffda0",
	"pthreads/3DES/copy=false":        "abebb442ce111e68e9ea7820f9f6ada840cb84f0fc1037747055a152ed15b790",
	"pthreads/3DES/copy=true":         "abebb442ce111e68e9ea7820f9f6ada840cb84f0fc1037747055a152ed15b790",
	"pthreads/DCT/copy=false":         "0797f2baff4727cc36c2d64171973e60a050c7e64e34382079b4326c9ac22028",
	"pthreads/DCT/copy=true":          "0797f2baff4727cc36c2d64171973e60a050c7e64e34382079b4326c9ac22028",
	"pthreads/MB/copy=false":          "e4d1833e0b941926435939adcd18d030ebf5466711a70086524385ad209969d2",
	"pthreads/MB/copy=true":           "e4d1833e0b941926435939adcd18d030ebf5466711a70086524385ad209969d2",
	"zorua/3DES/copy=false":           "773443ff6d7b51646b5d27294c4f86cc36753882e594d58aa260e596cd796263",
	"zorua/3DES/copy=true":            "b492a91ec9b7bdf1b41b03e77be59189c6f8922b6f3b2e095d7f11d769f69055",
	"zorua/DCT/copy=false":            "73e102ab9cae364b21828617db1cbb059b3861809dc23d7b2318e686ef004e82",
	"zorua/DCT/copy=true":             "3eccfbc9fb1df213f3ec683316915186ec3148f7376fde9fceaa6b9a2bbe19a5",
	"zorua/MB/copy=false":             "f1ed7e3296f85ec8a4307142cc4600a4a9b1ac8a9909d848c4f929e1bf0b5cb0",
	"zorua/MB/copy=true":              "dffdb4ee9049fecac297a5ec199daba796d90f390220bb2334d320b1e320cbb4",
}

// TestResultGolden runs every registered scheme's closed loop, static fusion,
// PThreads and Pagoda's batching ablation on three benchmarks with data
// copies on and off, and hashes each whole Result. A batch cap below the task
// count makes GeMTC and Pagoda-Batching launch several batches.
func TestResultGolden(t *testing.T) {
	runs := map[string]func([]workloads.TaskDef, Config) Result{
		"fusion":   RunFusion,
		"pthreads": RunPThreads,
		"pagoda-batching": func(tasks []workloads.TaskDef, cfg Config) Result {
			cfg.PagodaBatching = true
			return RunPagoda(tasks, cfg)
		},
	}
	for _, sc := range Schemes() {
		runs[sc.Key] = sc.Run
	}
	for _, name := range []string{"MB", "DCT", "3DES"} {
		b, err := workloads.ByName(name)
		if err != nil {
			t.Fatalf("workload %q: %v", name, err)
		}
		opt := workloads.Options{Tasks: 128, Threads: 128, Seed: 1, UseShared: b.SupportsShared}
		for _, copyData := range []bool{true, false} {
			cfg := DefaultConfig()
			cfg.GeMTCBatch = 48
			cfg.CopyData = copyData
			for key, run := range runs {
				h := sha256.New()
				digestf(h, run(b.Make(opt), cfg))
				id := fmt.Sprintf("%s/%s/copy=%t", key, name, copyData)
				got := hex.EncodeToString(h.Sum(nil))
				if want, ok := resultGoldenDigests[id]; !ok {
					t.Errorf("%s: no golden digest (got %q)", id, got)
				} else if got != want {
					t.Errorf("%s: digest %q, want %q", id, got, want)
				}
			}
		}
	}
}
