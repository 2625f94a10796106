package synth

import (
	"fmt"

	"ictm/internal/rng"
	"ictm/internal/topology"
)

// FlapEvent is one failure/maintenance window: the bidirectional link
// (From, To) is down — both directed edges removed — for bins in
// [StartBin, EndBin), then restored at its original weight W.
type FlapEvent struct {
	From     int     `json:"from"`
	To       int     `json:"to"`
	W        float64 `json:"w"`
	StartBin int     `json:"start_bin"`
	EndBin   int     `json:"end_bin"`
}

// Down returns the delta taking the link out of service.
func (f FlapEvent) Down() topology.Delta {
	return topology.Delta{Ops: []topology.DeltaOp{
		{Op: topology.OpRemove, From: f.From, To: f.To},
		{Op: topology.OpRemove, From: f.To, To: f.From},
	}}
}

// FlapSchedule is a sequence of non-overlapping flap events across one
// scenario week, ordered by StartBin.
type FlapSchedule struct {
	Events []FlapEvent `json:"events"`
}

// EventAt returns the event in progress at bin t (taken modulo nothing —
// callers fold multi-week series themselves) and whether one exists.
func (s FlapSchedule) EventAt(t int) (FlapEvent, bool) {
	for _, e := range s.Events {
		if t >= e.StartBin && t < e.EndBin {
			return e, true
		}
	}
	return FlapEvent{}, false
}

// GenerateFlaps builds a deterministic failure/maintenance schedule of k
// link flaps over one week of the scenario: the week is split into k
// equal segments and the middle third of each is an outage of one
// bidirectional link, chosen (from the scenario's own seed, on an
// independent derived stream) among links whose removal keeps g
// connected. Distinct events flap distinct links, so the schedule
// exercises k different reroutes. The graph must be the built form of
// sc.Topology().
func GenerateFlaps(sc Scenario, g *topology.Graph, k int) (FlapSchedule, error) {
	if err := sc.Validate(); err != nil {
		return FlapSchedule{}, err
	}
	if g == nil || g.N() != sc.N {
		return FlapSchedule{}, fmt.Errorf("%w: flap graph does not match scenario (n=%d)", ErrScenario, sc.N)
	}
	if k < 1 || 3*k > sc.BinsPerWeek {
		return FlapSchedule{}, fmt.Errorf("%w: %d flaps need at least %d bins/week, have %d",
			ErrScenario, k, 3*k, sc.BinsPerWeek)
	}

	// Candidate unordered links that are safe to fail: both directions
	// exist and removing the pair keeps the graph connected.
	type link struct {
		from, to int
		w        float64
	}
	var safe []link
	for _, e := range g.Edges() {
		if e.From > e.To {
			continue
		}
		ev := FlapEvent{From: e.From, To: e.To, W: e.Weight}
		if ng, _, err := g.Apply(ev.Down()); err == nil && ng.Connected() {
			safe = append(safe, link{e.From, e.To, e.Weight})
		}
	}
	if len(safe) < k {
		return FlapSchedule{}, fmt.Errorf("%w: only %d safely removable links for %d flaps",
			ErrScenario, len(safe), k)
	}

	// Pick k distinct links by a seed-derived permutation: the schedule
	// is a pure function of (scenario seed, topology, k), independent of
	// every stream the traffic generator consumes.
	r := rng.New(sc.Seed).Derive("synth/flaps")
	perm := r.Perm(len(safe))
	seg := sc.BinsPerWeek / k
	sched := FlapSchedule{Events: make([]FlapEvent, k)}
	for i := 0; i < k; i++ {
		l := safe[perm[i]]
		// The outage is the middle third of the segment, [seg/3, 2seg/3)
		// relative — every event is bracketed by steady bins on both
		// sides, and seg >= 3 guarantees at least one down bin.
		sched.Events[i] = FlapEvent{
			From:     l.from,
			To:       l.to,
			W:        l.w,
			StartBin: i*seg + seg/3,
			EndBin:   i*seg + (2*seg)/3,
		}
	}
	return sched, nil
}
