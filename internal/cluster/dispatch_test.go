package cluster

import (
	"testing"

	"repro/internal/serve"
	"repro/internal/sim"
)

// fakeNode is an instantly-serving in-test Node: Submit completes the task on
// the spot (after an optional fixed service delay via deferred events would
// complicate ordering; instant service keeps routing the only variable).
type fakeNode struct {
	eng     *sim.Engine
	name    string
	view    NodeView
	order   []int // task indexes in submission order
	at      []sim.Time
	closed  bool
	pending int // tasks left artificially outstanding (never completed)
}

func (f *fakeNode) Name() string   { return f.name }
func (f *fakeNode) View() NodeView { return f.view }
func (f *fakeNode) Close()         { f.closed = true }

func (f *fakeNode) Submit(ti int) {
	f.order = append(f.order, ti)
	f.at = append(f.at, f.eng.Now())
	f.view.Routed++
	if f.pending > 0 {
		f.pending-- // leave outstanding to steer load-aware policies
		return
	}
	f.view.Started++
	f.view.Done++
}

// fixedFleet is a test Fleet whose nodes are all dispatchable for the whole
// run under ids 0..n-1.
type fixedFleet []Node

func (f fixedFleet) Snapshot() ([]Node, []int) {
	ids := make([]int, len(f))
	for i := range ids {
		ids[i] = i
	}
	return f, ids
}

func (f fixedFleet) CloseAll() {
	for _, n := range f {
		n.Close()
	}
}

func fleet(eng *sim.Engine, n int) ([]*fakeNode, Fleet) {
	fakes := make([]*fakeNode, n)
	nodes := make(fixedFleet, n)
	for i := range fakes {
		fakes[i] = &fakeNode{eng: eng, name: string(rune('a' + i))}
		nodes[i] = fakes[i]
	}
	return fakes, nodes
}

func runDispatch(t *testing.T, eng *sim.Engine, d Dispatcher, n int) ([]serve.Record, []int) {
	t.Helper()
	recs := make([]serve.Record, n)
	nodeOf := make([]int, n)
	d.Spawn(eng, recs, nodeOf)
	eng.Run()
	return recs, nodeOf
}

func TestDispatcherRoutesRoundRobinAtArrivalInstants(t *testing.T) {
	const n = 9
	arr := serve.FixedRate{Rate: 1e6}.Times(n)
	eng := sim.New()
	fakes, fl := fleet(eng, 3)
	recs, nodeOf := runDispatch(t, eng, Dispatcher{Arrivals: arr, Fleet: fl}, n)

	for ti := 0; ti < n; ti++ {
		if nodeOf[ti] != ti%3 {
			t.Errorf("task %d routed to node %d, want %d", ti, nodeOf[ti], ti%3)
		}
		if recs[ti].Submit != arr[ti] {
			t.Errorf("task %d submit %v, want arrival %v", ti, recs[ti].Submit, arr[ti])
		}
	}
	for i, f := range fakes {
		if !f.closed {
			t.Errorf("node %d not closed after the last arrival", i)
		}
		if len(f.order) != 3 {
			t.Errorf("node %d received %d tasks, want 3", i, len(f.order))
		}
		for j, at := range f.at {
			if want := arr[f.order[j]]; at != want {
				t.Errorf("node %d submission %d at %v, want %v (no dispatch-side blocking)", i, j, at, want)
			}
		}
	}
	if err := CheckConservation([]NodeView{fakes[0].view, fakes[1].view, fakes[2].view}, n); err != nil {
		t.Errorf("conservation: %v", err)
	}
}

func TestDispatcherLeastOutstandingAvoidsStuckNode(t *testing.T) {
	const n = 12
	arr := serve.FixedRate{Rate: 1e6}.Times(n)
	eng := sim.New()
	fakes, fl := fleet(eng, 2)
	fakes[0].pending = n // node 0 never completes anything
	_, nodeOf := runDispatch(t, eng, Dispatcher{Arrivals: arr, Fleet: fl, Policy: LeastOutstanding{}}, n)

	// First arrival ties (both idle) -> node 0; every later arrival must see
	// node 0's outstanding pile and go to node 1.
	if nodeOf[0] != 0 {
		t.Fatalf("first pick = node %d, want 0 (tie to lowest index)", nodeOf[0])
	}
	for ti := 1; ti < n; ti++ {
		if nodeOf[ti] != 1 {
			t.Errorf("task %d routed to stuck node", ti)
		}
	}
}

func TestDispatcherClassesReachAffinity(t *testing.T) {
	const n = 8
	arr := serve.FixedRate{Rate: 1e6}.Times(n)
	classes := []int{0, 1, 2, 3, 0, 1, 2, 3}
	eng := sim.New()
	_, fl := fleet(eng, 4)
	_, nodeOf := runDispatch(t, eng, Dispatcher{Arrivals: arr, Classes: classes, Fleet: fl, Policy: ClassAffinity{}}, n)
	for ti, c := range classes {
		if nodeOf[ti] != c {
			t.Errorf("task %d class %d routed to node %d", ti, c, nodeOf[ti])
		}
	}
}

func TestDispatcherValidate(t *testing.T) {
	_, fl := fleet(sim.New(), 2)
	cases := []struct {
		name string
		d    Dispatcher
		n    int
	}{
		{"no fleet", Dispatcher{Arrivals: []sim.Time{1}}, 1},
		{"no nodes", Dispatcher{Arrivals: []sim.Time{1}, Fleet: fixedFleet(nil)}, 1},
		{"arrival count", Dispatcher{Arrivals: []sim.Time{1}, Fleet: fl}, 2},
		{"decreasing", Dispatcher{Arrivals: []sim.Time{2, 1}, Fleet: fl}, 2},
		{"classes len", Dispatcher{Arrivals: []sim.Time{1, 2}, Classes: []int{0}, Fleet: fl}, 2},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Validate did not panic", c.name)
				}
			}()
			c.d.Validate(c.n)
		}()
	}
}
