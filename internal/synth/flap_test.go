package synth

import (
	"errors"
	"testing"

	"ictm/internal/topology"
)

func flapFixture(t *testing.T, n, k int) (Scenario, *topology.Graph, FlapSchedule) {
	t.Helper()
	sc := ISPLike(n)
	g, err := sc.Topology().Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	sched, err := GenerateFlaps(sc, g, k)
	if err != nil {
		t.Fatalf("GenerateFlaps: %v", err)
	}
	return sc, g, sched
}

// TestGenerateFlapsShape: k events, one per week segment, each outage
// strictly inside the middle of its segment, all links distinct, every
// down graph still connected, and Up exactly restores the graph.
func TestGenerateFlapsShape(t *testing.T) {
	sc, g, sched := flapFixture(t, 16, 4)
	if len(sched.Events) != 4 {
		t.Fatalf("%d events, want 4", len(sched.Events))
	}
	seg := sc.BinsPerWeek / 4
	seen := map[[2]int]bool{}
	baseEdges := map[[2]int]float64{}
	for _, e := range g.Edges() {
		baseEdges[[2]int{e.From, e.To}] = e.Weight
	}
	for i, ev := range sched.Events {
		if ev.StartBin < i*seg || ev.EndBin > (i+1)*seg || ev.StartBin >= ev.EndBin {
			t.Errorf("event %d: window [%d, %d) outside segment [%d, %d)", i, ev.StartBin, ev.EndBin, i*seg, (i+1)*seg)
		}
		if ev.StartBin == i*seg || ev.EndBin == (i+1)*seg {
			t.Errorf("event %d: outage not bracketed by steady bins", i)
		}
		l := [2]int{ev.From, ev.To}
		if seen[l] {
			t.Errorf("event %d: link %v flapped twice", i, l)
		}
		seen[l] = true
		down, _, err := g.Apply(ev.Down())
		if err != nil {
			t.Fatalf("event %d: Down: %v", i, err)
		}
		if !down.Connected() {
			t.Errorf("event %d: down graph disconnected", i)
		}
		// Re-adding both directions at the original weight restores the
		// same edge multiset (re-added edges take fresh IDs, so the graphs
		// are equivalent, not identical in order).
		up, _, err := down.Apply(topology.Delta{Ops: []topology.DeltaOp{
			{Op: topology.OpAdd, From: ev.From, To: ev.To, Weight: ev.W},
			{Op: topology.OpAdd, From: ev.To, To: ev.From, Weight: ev.W},
		}})
		if err != nil {
			t.Fatalf("event %d: Up: %v", i, err)
		}
		if up.NumEdges() != g.NumEdges() {
			t.Fatalf("event %d: restored graph has %d edges, want %d", i, up.NumEdges(), g.NumEdges())
		}
		for _, e := range up.Edges() {
			if w, ok := baseEdges[[2]int{e.From, e.To}]; !ok || w != e.Weight {
				t.Errorf("event %d: restored edge %d->%d w=%g not in base", i, e.From, e.To, e.Weight)
			}
		}
	}
}

// TestGenerateFlapsDeterministic: the schedule is a pure function of
// (seed, topology, k); a different seed moves the links.
func TestGenerateFlapsDeterministic(t *testing.T) {
	_, _, a := flapFixture(t, 16, 3)
	_, _, b := flapFixture(t, 16, 3)
	if len(a.Events) != len(b.Events) {
		t.Fatal("schedules differ in length")
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs across identical inputs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}

	sc := ISPLike(16)
	sc.Seed += 1
	g, err := topology.BackboneStub(sc.N, 0, ISPLike(16).Seed)
	if err != nil {
		t.Fatal(err)
	}
	c, err := GenerateFlaps(sc, g, 3)
	if err != nil {
		t.Fatalf("GenerateFlaps(seed+1): %v", err)
	}
	same := true
	for i := range c.Events {
		if c.Events[i].From != a.Events[i].From || c.Events[i].To != a.Events[i].To {
			same = false
		}
	}
	if same {
		t.Error("schedule ignored the scenario seed")
	}
}

func TestFlapScheduleEventAt(t *testing.T) {
	_, _, sched := flapFixture(t, 16, 2)
	hits := 0
	for _, ev := range sched.Events {
		if got, ok := sched.EventAt(ev.StartBin); !ok || got != ev {
			t.Errorf("EventAt(%d) = %+v, %v", ev.StartBin, got, ok)
		}
		if got, ok := sched.EventAt(ev.EndBin - 1); !ok || got != ev {
			t.Errorf("EventAt(%d) = %+v, %v", ev.EndBin-1, got, ok)
		}
		if _, ok := sched.EventAt(ev.EndBin); ok {
			t.Errorf("EventAt(%d): event past its end", ev.EndBin)
		}
		hits += ev.EndBin - ev.StartBin
	}
	if _, ok := sched.EventAt(0); ok {
		t.Error("EventAt(0): schedule begins mid-outage")
	}
	sc := ISPLike(16)
	downBins := 0
	for tb := 0; tb < sc.BinsPerWeek; tb++ {
		if _, ok := sched.EventAt(tb); ok {
			downBins++
		}
	}
	if downBins != hits {
		t.Errorf("%d down bins across the week, want %d", downBins, hits)
	}
}

func TestGenerateFlapsValidation(t *testing.T) {
	sc := ISPLike(12)
	g, err := sc.Topology().Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GenerateFlaps(sc, g, 0); !errors.Is(err, ErrScenario) {
		t.Errorf("k=0: %v", err)
	}
	if _, err := GenerateFlaps(sc, g, sc.BinsPerWeek); !errors.Is(err, ErrScenario) {
		t.Errorf("k too large: %v", err)
	}
	if _, err := GenerateFlaps(sc, nil, 1); !errors.Is(err, ErrScenario) {
		t.Errorf("nil graph: %v", err)
	}
	other, err := topology.BackboneStub(8, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GenerateFlaps(sc, other, 1); !errors.Is(err, ErrScenario) {
		t.Errorf("mismatched graph: %v", err)
	}
	bad := sc
	bad.N = 1
	if _, err := GenerateFlaps(bad, g, 1); !errors.Is(err, ErrScenario) {
		t.Errorf("invalid scenario: %v", err)
	}
}
