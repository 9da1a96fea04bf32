package runners

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workloads"
)

// workPins are the exact engine work counters of each registered scheme's
// closed loop on a small fixed batch: events dispatched and process
// hand-offs (sim.Engine.Work), summed over the run. Both are pure functions
// of the simulation, so they do not depend on the host. A change that makes
// the simulator do more work per task fails here on any runner. Events must
// not move without a model change; hand-offs fall when fewer events resume a
// process on another goroutine.
var workPins = map[string][2]int64{
	"hyperq/MB":   {33306, 1406},
	"gemtc/MB":    {39251, 6822},
	"pagoda/MB":   {56607, 6034},
	"zorua/MB":    {33306, 1406},
	"hyperq/DCT":  {4202, 890},
	"gemtc/DCT":   {10848, 6150},
	"pagoda/DCT":  {14023, 5940},
	"zorua/DCT":   {4202, 890},
	"hyperq/3DES": {9781, 775},
	"gemtc/3DES":  {15756, 6206},
	"pagoda/3DES": {21975, 5397},
	"zorua/3DES":  {9781, 775},
}

func TestWorkCountersPinned(t *testing.T) {
	var engs []*sim.Engine
	newEngine = func() *sim.Engine {
		e := sim.New()
		engs = append(engs, e)
		return e
	}
	defer func() { newEngine = sim.New }()

	const tasks = 32
	for _, name := range []string{"MB", "DCT", "3DES"} {
		b, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		opt := workloads.Options{Tasks: tasks, Threads: 128, Seed: 1, UseShared: b.SupportsShared}
		for _, sc := range Schemes() {
			engs = engs[:0]
			sc.Run(b.Make(opt), DefaultConfig())
			if len(engs) != 1 {
				t.Fatalf("%s/%s: %d engines built, want 1", sc.Key, name, len(engs))
			}
			events, handoffs := engs[0].Work()
			id := sc.Key + "/" + name
			t.Logf("%s: %.1f events, %.1f hand-offs per task", id, float64(events)/tasks, float64(handoffs)/tasks)
			want, ok := workPins[id]
			if !ok {
				t.Errorf("%s: no pin (got %d events, %d hand-offs)", id, events, handoffs)
				continue
			}
			if events != want[0] || handoffs != want[1] {
				t.Errorf("%s: %d events, %d hand-offs; want %d, %d", id, events, handoffs, want[0], want[1])
			}
		}
	}
}
