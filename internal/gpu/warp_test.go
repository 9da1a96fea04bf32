package gpu

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// runWarpOp times a single-warp kernel body on a 1-SMM device.
func runWarpOp(fn func(c *Ctx)) sim.Time {
	eng := sim.New()
	cfg := TitanX()
	cfg.NumSMMs = 1
	dev := NewDevice(eng, cfg)
	dev.Launch(LaunchSpec{Name: "op", GridDim: 1, BlockThreads: 32, Fn: fn})
	return eng.Run()
}

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v (±%v)", msg, got, want, tol)
	}
}

func TestGlobalReadCost(t *testing.T) {
	cfg := TitanX()
	// One coalesced 128-byte read: 1 issue cycle + bandwidth share + global
	// latency.
	got := runWarpOp(func(c *Ctx) { c.GlobalRead(128) })
	want := 1 + 128/cfg.MemBandwidth + cfg.GlobalLatency
	approx(t, got, want, 1e-6, "GlobalRead(128)")
	// 1024 bytes = 8 transactions.
	got = runWarpOp(func(c *Ctx) { c.GlobalRead(1024) })
	approx(t, got, 8+1024/cfg.MemBandwidth+cfg.GlobalLatency, 1e-6, "GlobalRead(1024)")
}

func TestMemBandwidthShared(t *testing.T) {
	// Two SMMs streaming concurrently share the device bandwidth: twice the
	// data takes roughly twice as long as one warp's worth, not the same.
	run := func(warps int) sim.Time {
		eng := sim.New()
		cfg := TitanX()
		cfg.NumSMMs = 2
		dev := NewDevice(eng, cfg)
		dev.Launch(LaunchSpec{
			Name: "stream", GridDim: warps, BlockThreads: 32,
			Fn: func(c *Ctx) {
				for i := 0; i < 20; i++ {
					c.GlobalRead(1 << 17) // 128 KB per op: bandwidth-dominated
				}
			},
		})
		return eng.Run()
	}
	one, eight := run(1), run(8)
	// The aggregate can never beat the bandwidth floor: total bytes / rate.
	floor := float64(8*20*(1<<17)) / TitanX().MemBandwidth
	if eight < floor {
		t.Fatalf("8 streaming warps finished in %v, below the bandwidth floor %v", eight, floor)
	}
	if eight < one*2 {
		t.Fatalf("bandwidth not shared: 1 warp %v, 8 warps %v", one, eight)
	}
}

func TestGlobalWriteCheaperThanRead(t *testing.T) {
	r := runWarpOp(func(c *Ctx) { c.GlobalRead(128) })
	w := runWarpOp(func(c *Ctx) { c.GlobalWrite(128) })
	if w >= r {
		t.Fatalf("write (%v) should retire faster than read (%v)", w, r)
	}
}

func TestSharedFasterThanGlobal(t *testing.T) {
	g := runWarpOp(func(c *Ctx) { c.GlobalRead(128) })
	s := runWarpOp(func(c *Ctx) { c.SharedRead(128) })
	if s >= g/3 {
		t.Fatalf("shared read (%v) not much faster than global (%v)", s, g)
	}
}

func TestFenceCosts(t *testing.T) {
	dev := runWarpOp(func(c *Ctx) { c.Threadfence() })
	blk := runWarpOp(func(c *Ctx) { c.ThreadfenceBlock() })
	if blk >= dev {
		t.Fatalf("block fence (%v) should be cheaper than device fence (%v)", blk, dev)
	}
}

func TestWarpVoteCheap(t *testing.T) {
	v := runWarpOp(func(c *Ctx) { c.WarpVoteAll() })
	if v > 5 {
		t.Fatalf("warp vote cost %v, want a couple of cycles", v)
	}
}

func TestCtxGeometry(t *testing.T) {
	eng := sim.New()
	cfg := TitanX()
	cfg.NumSMMs = 1
	dev := NewDevice(eng, cfg)
	type rec struct{ block, warp, base, lanes int }
	var recs []rec
	dev.Launch(LaunchSpec{
		Name: "geom", GridDim: 2, BlockThreads: 96, // 3 warps per block
		Fn: func(c *Ctx) {
			recs = append(recs, rec{c.BlockIdx, c.WarpInBlock, c.LaneBase(), c.ActiveLanes()})
		},
	})
	eng.Run()
	if len(recs) != 6 {
		t.Fatalf("ran %d warps, want 6", len(recs))
	}
	for _, r := range recs {
		wantBase := r.block*96 + r.warp*32
		if r.base != wantBase {
			t.Errorf("block %d warp %d: LaneBase = %d, want %d", r.block, r.warp, r.base, wantBase)
		}
		if r.lanes != 32 {
			t.Errorf("full warp has %d active lanes", r.lanes)
		}
	}
}

func TestTidBaseOffset(t *testing.T) {
	eng := sim.New()
	cfg := TitanX()
	cfg.NumSMMs = 1
	dev := NewDevice(eng, cfg)
	var tids []int
	dev.Launch(LaunchSpec{
		Name: "tidbase", GridDim: 1, BlockThreads: 32,
		Fn: func(c *Ctx) {
			c.TidBase = 1000
			c.ForEachLane(func(tid int) { tids = append(tids, tid) })
		},
	})
	eng.Run()
	if tids[0] != 1000 || tids[31] != 1031 {
		t.Fatalf("tids = [%d..%d], want [1000..1031]", tids[0], tids[31])
	}
}

func TestSleepConsumesNoIssue(t *testing.T) {
	eng := sim.New()
	cfg := TitanX()
	cfg.NumSMMs = 1
	dev := NewDevice(eng, cfg)
	dev.Launch(LaunchSpec{
		Name: "sleep", GridDim: 1, BlockThreads: 32,
		Fn: func(c *Ctx) { c.Sleep(1000) },
	})
	eng.Run()
	m := dev.Metrics()
	if m.IssueUtil > 0.001 {
		t.Fatalf("Sleep consumed issue bandwidth: util=%v", m.IssueUtil)
	}
}

func BenchmarkKernelLaunchExec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.New()
		cfg := TitanX()
		cfg.NumSMMs = 4
		dev := NewDevice(eng, cfg)
		dev.Launch(LaunchSpec{
			Name: "bench", GridDim: 64, BlockThreads: 128,
			Fn: func(c *Ctx) {
				for j := 0; j < 10; j++ {
					c.GlobalRead(512)
					c.Compute(200)
				}
			},
		})
		eng.Run()
	}
}
