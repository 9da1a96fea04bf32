package harness

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/runners"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// oversubFactors is the zorua oversubscription ladder the sweep walks: 1.0
// is physical admission (no virtualization benefit, no spill risk), and each
// step above it admits more co-resident tasks per physical resource.
var oversubFactors = []float64{1, 1.25, 1.5, 2, 3}

// oversubRates is the offered-load ladder per factor, chosen so the
// shared-memory-bound workload's knee lands inside it on the 2-SMM slice.
var oversubRates = []float64{8e3, 16e3, 32e3, 64e3, 128e3}

// oversubSMMs is the device slice the sweep runs on. Occupancy admission is
// a per-SMM decision, so a narrow slice surfaces it at offered rates a
// 512-task run can actually sustain; the full device would need megahertz
// arrival rates before shared-memory residency ever bound.
const oversubSMMs = 2

// OversubSweep regenerates the zorua oversubscription sweep: the
// shared-memory DCT workload under Poisson arrivals, swept over the
// oversubscription factor crossed with an offered-rate ladder. Low factors
// waste capacity by admitting conservatively; high factors admit more
// resident tasks than the shared memory can back and pay spill traffic on
// every reference — the knee between the two is the factor a deployment
// would pick.
func OversubSweep(p Params) *Report {
	p = p.fill()
	n := serveTaskCount(p)
	slo := p.sloCycles()

	sc, ok := runners.SchemeByKey("zorua")
	if !ok {
		panic("harness: zorua scheme missing from the runners registry")
	}

	header := []string{"Factor"}
	for _, rate := range oversubRates {
		header = append(header, fmt.Sprintf("%.0f/s", rate))
	}
	header = append(header, "max-rate(/s)")
	r := newReport("oversub_sweep",
		fmt.Sprintf("Zorua oversubscription sweep (DCT shared-memory, %d tasks, Poisson arrivals; p99 us per offered rate, * = %.0fus p99 SLO missed)", n, slo/1e3),
		header...)
	r.setSeed(p.Seed)

	// One warp per threadblock against the 16 KB shared tile (InputSize
	// 512): six resident blocks fill an SMM's shared memory but leave its
	// warp slots nearly empty, so physical admission starves the latency-
	// hiding the segmented kernel needs — exactly the regime
	// virtualization targets. Copies are off: this is an occupancy
	// experiment, and the 1 MB/task PCIe traffic would drown it.
	b, _ := workloads.ByName("DCT")
	opt := workloads.Options{Tasks: n, Threads: 32, InputSize: 512, Seed: p.Seed, UseShared: true}
	mk := func() []workloads.TaskDef { return b.Make(opt) }

	s := newSweep(p)
	cells := make(map[float64][]*fleetOut)
	for _, factor := range oversubFactors {
		cfg := p.runnerCfg()
		cfg.SMMs = oversubSMMs
		cfg.CopyData = false
		cfg.Oversub = gpu.UniformOversub(factor)
		for _, rate := range oversubRates {
			gen := serve.Poisson{Rate: rate, Seed: p.Seed}
			cells[factor] = append(cells[factor], fleetCell(s, mk, cfg, sc, slo, gen, runners.ClusterOpenLoop{}, nil))
		}
	}
	s.run()

	for _, factor := range oversubFactors {
		key := fmt.Sprintf("%.2f", factor)
		row, _ := r.ladder(key, oversubRates, oversubRates, cells[factor], key)
		r.addRow(row...)
	}
	r.note("factor 1.00 is physical admission; above it zorua admits factor x the physical shared memory/registers/threads/thread-slots and pays spill traffic for the excess")
	r.note("the knee is the largest factor whose max sustainable rate still grows: beyond it spill cost eats the extra concurrency")
	return r
}
