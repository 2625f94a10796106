package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"ictm/internal/estimation"
	"ictm/internal/topology"
)

// ringSpec is a tiny valid topology for registry tests.
func ringSpec(seed uint64) topology.Spec {
	return topology.Spec{Family: topology.FamilyRingChords, N: 5, Chords: 1, Seed: seed}
}

// TestRegisterTopologyLifecycle: create, idempotent repeat, conflict,
// and rejection of malformed keys and specs with the typed sentinels.
func TestRegisterTopologyLifecycle(t *testing.T) {
	engine := NewEngine(1)

	n, created, err := engine.RegisterTopology("ring", ringSpec(1))
	if err != nil || !created || n != 5 {
		t.Fatalf("first registration: n=%d created=%v err=%v", n, created, err)
	}
	// Same key, equivalent spec: idempotent.
	n, created, err = engine.RegisterTopology("ring", ringSpec(1))
	if err != nil || created || n != 5 {
		t.Fatalf("repeat registration: n=%d created=%v err=%v", n, created, err)
	}
	// Same key, different topology: conflict.
	if _, _, err := engine.RegisterTopology("ring", ringSpec(2)); !errors.Is(err, ErrConflict) {
		t.Fatalf("conflicting registration: %v", err)
	}
	// Same spec under another key is a separate registration sharing the
	// pooled solver.
	if _, created, err := engine.RegisterTopology("ring2", ringSpec(1)); err != nil || !created {
		t.Fatalf("alias registration: created=%v err=%v", created, err)
	}
	// Malformed inputs.
	if _, _, err := engine.RegisterTopology("", ringSpec(1)); !errors.Is(err, ErrStream) {
		t.Errorf("empty key: %v", err)
	}
	if _, _, err := engine.RegisterTopology("bad", topology.Spec{Family: "bogus", N: 4}); !errors.Is(err, ErrStream) {
		t.Errorf("bad spec: %v", err)
	}

	st := engine.Stats()
	if st.RegisteredTopologies != 2 {
		t.Errorf("registered topologies = %d, want 2", st.RegisteredTopologies)
	}
	if st.Topologies != 2 { // ring(1) shared + bogus failed build cached
		t.Errorf("pooled topologies = %d, want 2", st.Topologies)
	}
}

// TestRegisterPriorLifecycle: handles are deterministic and idempotent,
// unknown topologies 404, malformed state rejects with ErrStream.
func TestRegisterPriorLifecycle(t *testing.T) {
	engine := NewEngine(1)
	if _, _, err := engine.RegisterTopology("ring", ringSpec(1)); err != nil {
		t.Fatal(err)
	}

	h1, created, err := engine.RegisterPrior("ring", estimation.PriorState{Name: "ic-stable-f", F: 0.25})
	if err != nil || !created || h1 == "" {
		t.Fatalf("first prior: handle=%q created=%v err=%v", h1, created, err)
	}
	h2, created, err := engine.RegisterPrior("ring", estimation.PriorState{Name: "ic-stable-f", F: 0.25})
	if err != nil || created || h2 != h1 {
		t.Fatalf("repeat prior: handle=%q created=%v err=%v (want %q, idempotent)", h2, created, err, h1)
	}
	h3, _, err := engine.RegisterPrior("ring", estimation.PriorState{Name: "gravity"})
	if err != nil || h3 == h1 {
		t.Fatalf("distinct state must get a distinct handle: %q vs %q (err=%v)", h3, h1, err)
	}

	if _, _, err := engine.RegisterPrior("nope", estimation.PriorState{Name: "gravity"}); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown topology: %v", err)
	}
	if _, _, err := engine.RegisterPrior("ring", estimation.PriorState{Name: "bogus"}); !errors.Is(err, ErrStream) {
		t.Errorf("bad prior state: %v", err)
	}
	// Validation runs against the registered topology's n.
	if _, _, err := engine.RegisterPrior("ring", estimation.PriorState{
		Name: "ic-stable-fP", F: 0.3, Pref: []float64{1, 2}, // n=5 topology
	}); !errors.Is(err, ErrStream) {
		t.Errorf("n-mismatched prior state: %v", err)
	}

	if st := engine.Stats(); st.RegisteredPriors != 2 {
		t.Errorf("registered priors = %d, want 2", st.RegisteredPriors)
	}
}

// TestSessionEstimateMatchesInlineBitwise: a session referencing
// registered handles produces byte-identical estimates to the v1 inline
// path and to Estimator.EstimateBin in-process, for workers 1 and 8.
func TestSessionEstimateMatchesInlineBitwise(t *testing.T) {
	sc, d := testScenario(t)
	bins := testBins(t, sc, d)
	state := estimation.PriorState{Name: "ic-stable-f", F: 0.25}

	for _, workers := range []int{1, 8} {
		engine := NewEngine(workers)
		if _, _, err := engine.RegisterTopology("isp12", sc.Topology()); err != nil {
			t.Fatal(err)
		}
		handle, _, err := engine.RegisterPrior("isp12", state)
		if err != nil {
			t.Fatal(err)
		}
		got, err := engine.EstimateBatch(context.Background(), SessionSpec{Topology: "isp12", Prior: handle}, bins)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		want, err := engine.EstimateBatchInline(context.Background(), StreamSpec{Topology: sc.Topology(), Prior: state}, bins)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(bins) || len(want) != len(bins) {
			t.Fatalf("workers=%d: %d/%d estimates for %d bins", workers, len(got), len(want), len(bins))
		}
		for i := range got {
			if got[i].Error != "" || want[i].Error != "" {
				t.Fatalf("workers=%d bin %d: errors %q / %q", workers, i, got[i].Error, want[i].Error)
			}
			if got[i].Diag != want[i].Diag {
				t.Fatalf("workers=%d bin %d: diag %+v vs %+v", workers, i, got[i].Diag, want[i].Diag)
			}
			for k := range got[i].Estimate {
				if math.Float64bits(got[i].Estimate[k]) != math.Float64bits(want[i].Estimate[k]) {
					t.Fatalf("workers=%d bin %d flow %d: session and inline paths diverged", workers, i, k)
				}
			}
		}
	}
}

// TestSessionUnknownHandles: sessions naming unregistered or mismatched
// resources fail with ErrNotFound (the HTTP 404s).
func TestSessionUnknownHandles(t *testing.T) {
	engine := NewEngine(1)
	if _, _, err := engine.RegisterTopology("a", ringSpec(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := engine.RegisterTopology("b", ringSpec(2)); err != nil {
		t.Fatal(err)
	}
	handle, _, err := engine.RegisterPrior("a", estimation.PriorState{Name: "gravity"})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := engine.Open(context.Background(), SessionSpec{Topology: "nope", Prior: handle}); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown topology: %v", err)
	}
	if _, err := engine.Open(context.Background(), SessionSpec{Topology: "a", Prior: "pr-bogus"}); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown prior: %v", err)
	}
	// A prior handle is scoped to the topology it was registered for.
	if _, err := engine.Open(context.Background(), SessionSpec{Topology: "b", Prior: handle}); !errors.Is(err, ErrNotFound) {
		t.Errorf("cross-topology prior: %v", err)
	}
}

// TestRegistryLRUCascade: evicting a registered topology beyond the
// bound cascades to its priors, and later sessions see ErrNotFound
// (re-register to continue — the documented lifecycle).
func TestRegistryLRUCascade(t *testing.T) {
	engine := NewEngine(1)
	engine.maxTopologies = 2
	if _, _, err := engine.RegisterTopology("a", ringSpec(1)); err != nil {
		t.Fatal(err)
	}
	ha, _, err := engine.RegisterPrior("a", estimation.PriorState{Name: "gravity"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := engine.RegisterTopology("b", ringSpec(2)); err != nil {
		t.Fatal(err)
	}
	// Touch A so B is the LRU entry, then push C in.
	if _, _, err := engine.RegisterTopology("a", ringSpec(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := engine.RegisterTopology("c", ringSpec(3)); err != nil {
		t.Fatal(err)
	}

	st := engine.Stats()
	if st.RegisteredTopologies != 2 || st.RegistrationsEvicted == 0 {
		t.Fatalf("stats after eviction: %+v", st)
	}
	if _, err := engine.Open(context.Background(), SessionSpec{Topology: "b", Prior: "whatever"}); !errors.Is(err, ErrNotFound) {
		t.Errorf("evicted topology must 404: %v", err)
	}
	// A survived with its prior.
	if _, err := engine.Open(context.Background(), SessionSpec{Topology: "a", Prior: ha}); err != nil {
		t.Errorf("surviving registration broken: %v", err)
	}
}

// TestPriorRegistryLRUBounded: the prior registry evicts its LRU entry
// beyond the cap.
func TestPriorRegistryLRUBounded(t *testing.T) {
	engine := NewEngine(1)
	engine.maxPriors = 2
	if _, _, err := engine.RegisterTopology("a", ringSpec(1)); err != nil {
		t.Fatal(err)
	}
	h1, _, err := engine.RegisterPrior("a", estimation.PriorState{Name: "ic-stable-f", F: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := engine.RegisterPrior("a", estimation.PriorState{Name: "ic-stable-f", F: 0.3}); err != nil {
		t.Fatal(err)
	}
	// Touch h1 (idempotent re-register) so the 0.3 handle is LRU.
	if _, _, err := engine.RegisterPrior("a", estimation.PriorState{Name: "ic-stable-f", F: 0.2}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := engine.RegisterPrior("a", estimation.PriorState{Name: "ic-stable-f", F: 0.4}); err != nil {
		t.Fatal(err)
	}
	st := engine.Stats()
	if st.RegisteredPriors != 2 {
		t.Fatalf("registered priors = %d, want 2", st.RegisteredPriors)
	}
	if _, err := engine.Open(context.Background(), SessionSpec{Topology: "a", Prior: h1}); err != nil {
		t.Errorf("recently-used prior evicted: %v", err)
	}
}

// TestPatchCarriedPriorsEvictByHandle pins the eviction order among the
// priors one PatchTopology call carries: they share that call's use
// tick, so once they are the registry's oldest entries the LRU bound
// evicts them in handle order.
func TestPatchCarriedPriorsEvictByHandle(t *testing.T) {
	engine := NewEngine(1)
	engine.maxPriors = 3
	if _, _, err := engine.RegisterTopology("base", ringSpec(1)); err != nil {
		t.Fatal(err)
	}
	states := []estimation.PriorState{
		{Name: "gravity"},
		{Name: "ic-stable-f", F: 0.2},
		{Name: "ic-stable-f", F: 0.3},
	}
	var base []string
	for _, s := range states {
		h, _, err := engine.RegisterPrior("base", s)
		if err != nil {
			t.Fatal(err)
		}
		base = append(base, h)
	}
	g, err := ringSpec(1).Build()
	if err != nil {
		t.Fatal(err)
	}
	// Carrying three priors into a registry of three evicts the base's.
	res, err := engine.PatchTopology("base", removableDelta(t, g))
	if err != nil {
		t.Fatalf("PatchTopology: %v", err)
	}
	var carried []string
	for _, s := range states {
		canonical, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		carried = append(carried, priorHandle(res.Key, canonical))
	}
	sort.Strings(carried)

	// Two fresh priors evict the two smallest carried handles.
	var fresh []string
	for _, f := range []float64{0.4, 0.5} {
		h, created, err := engine.RegisterPrior(res.Key, estimation.PriorState{Name: "ic-stable-f", F: f})
		if err != nil || !created {
			t.Fatalf("fresh prior F=%g: created=%v err=%v", f, created, err)
		}
		fresh = append(fresh, h)
	}
	if st := engine.Stats(); st.RegisteredPriors != 3 || st.RegistrationsEvicted != 5 {
		t.Fatalf("stats = %+v, want 3 registered / 5 evicted", st)
	}
	dims := func(topo, handle string) error {
		_, _, err := engine.SessionDims(SessionSpec{Topology: topo, Prior: handle})
		return err
	}
	for _, h := range base {
		if err := dims("base", h); !errors.Is(err, ErrNotFound) {
			t.Errorf("base prior %s: %v, want evicted", h, err)
		}
	}
	for i, h := range carried {
		err := dims(res.Key, h)
		if i < 2 && !errors.Is(err, ErrNotFound) {
			t.Errorf("carried prior %d (%s): %v, want evicted", i, h, err)
		}
		if i == 2 && err != nil {
			t.Errorf("largest carried handle %s evicted: %v", h, err)
		}
	}
	for _, h := range fresh {
		if err := dims(res.Key, h); err != nil {
			t.Errorf("fresh prior %s: %v", h, err)
		}
	}
}

// race runs f(0) … f(n-1) on n goroutines released together.
func race(n int, f func(i int)) {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			f(i)
		}()
	}
	close(start)
	wg.Wait()
}

// TestRegistryLostRaces drives the registries' lost-race branches:
// goroutines race on one registration, or on one adoption from a shared
// store. Exactly one call creates the entry, every other one adopts it
// or conflicts with it, and the registries stay within their bounds.
func TestRegistryLostRaces(t *testing.T) {
	const racers = 8
	dir := t.TempDir()
	engine := NewEngine(1, WithStore(openStore(t, dir)))
	engine.maxTopologies, engine.maxPriors = 2, 2

	// One key, two specs: whichever registration lands first wins, and
	// the calls naming the other spec conflict with it.
	specOf := func(i int) topology.Spec { return ringSpec(uint64(1 + i%2)) }
	created := make([]bool, racers)
	errs := make([]error, racers)
	race(racers, func(i int) { _, created[i], errs[i] = engine.RegisterTopology("k", specOf(i)) })
	winner := -1
	for i, c := range created {
		if c && winner >= 0 {
			t.Fatalf("topology created by calls %d and %d", winner, i)
		}
		if c {
			winner = i
		}
	}
	if winner < 0 {
		t.Fatalf("no call created the topology: %v", errs)
	}
	for i, err := range errs {
		if specOf(i).Key() == specOf(winner).Key() {
			if err != nil {
				t.Errorf("call %d (winner's spec): %v", i, err)
			}
		} else if !errors.Is(err, ErrConflict) {
			t.Errorf("call %d (other spec): %v, want ErrConflict", i, err)
		}
	}

	handles := make([]string, racers)
	race(racers, func(i int) {
		handles[i], created[i], errs[i] = engine.RegisterPrior("k", estimation.PriorState{Name: "gravity"})
	})
	n := 0
	for i := range handles {
		if errs[i] != nil || handles[i] != handles[0] {
			t.Fatalf("prior call %d: handle %q err %v, want %q", i, handles[i], errs[i], handles[0])
		}
		if created[i] {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("prior created by %d calls, want 1", n)
	}

	// A replica adopts both through the store; its racing resolvers all
	// end up with the one entry that landed.
	replica := NewEngine(1, WithStore(openStore(t, dir)))
	topos := make([]*topoEntry, racers)
	priors := make([]*priorEntry, racers)
	race(racers, func(i int) {
		if i%2 == 0 {
			topos[i], _ = replica.lookupTopo("k")
		} else {
			priors[i], _ = replica.lookupPrior(handles[0])
		}
	})
	topo, _ := replica.lookupTopo("k")
	prior, _ := replica.lookupPrior(handles[0])
	if topo == nil || prior == nil {
		t.Fatal("replica did not adopt the registrations")
	}
	for i := range topos {
		if i%2 == 0 && topos[i] != topo || i%2 == 1 && priors[i] != prior {
			t.Errorf("resolver %d adopted an entry that lost the race", i)
		}
	}
	if st := replica.Stats(); st.RegisteredTopologies != 1 || st.RegisteredPriors != 1 {
		t.Errorf("replica registries: %+v", st)
	}

	// Racing registrations of distinct keys never overrun the bounds and
	// never leave a prior whose topology was evicted.
	race(racers, func(i int) {
		key := fmt.Sprintf("b%d", i)
		if _, _, err := engine.RegisterTopology(key, ringSpec(uint64(10+i))); err != nil {
			t.Errorf("RegisterTopology(%s): %v", key, err)
			return
		}
		if _, _, err := engine.RegisterPrior(key, estimation.PriorState{Name: "gravity"}); err != nil && !errors.Is(err, ErrNotFound) {
			t.Errorf("RegisterPrior(%s): %v", key, err)
		}
	})
	st := engine.Stats()
	if st.RegisteredTopologies > 2 || st.RegisteredPriors > 2 || st.Topologies > 2 {
		t.Fatalf("registries beyond their bounds: %+v", st)
	}
	owned := 0
	for _, info := range engine.Topologies() {
		owned += info.Priors
	}
	if owned != st.RegisteredPriors {
		t.Fatalf("%d of %d priors belong to a registered topology", owned, st.RegisteredPriors)
	}
}

// TestEngineDrain: once draining, registrations and new sessions fail
// with ErrDraining while an already-open stream keeps serving.
func TestEngineDrain(t *testing.T) {
	sc, d := testScenario(t)
	bins := testBins(t, sc, d)[:2]
	engine := NewEngine(1)
	if _, _, err := engine.RegisterTopology("isp12", sc.Topology()); err != nil {
		t.Fatal(err)
	}
	handle, _, err := engine.RegisterPrior("isp12", estimation.PriorState{Name: "gravity"})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := engine.Open(context.Background(), SessionSpec{Topology: "isp12", Prior: handle})
	if err != nil {
		t.Fatal(err)
	}

	engine.Drain()
	if !engine.Stats().Draining {
		t.Error("stats must report draining")
	}
	if _, _, err := engine.RegisterTopology("x", ringSpec(1)); !errors.Is(err, ErrDraining) {
		t.Errorf("register topology while draining: %v", err)
	}
	if _, _, err := engine.RegisterPrior("isp12", estimation.PriorState{Name: "gravity"}); !errors.Is(err, ErrDraining) {
		t.Errorf("register prior while draining: %v", err)
	}
	if _, err := engine.Open(context.Background(), SessionSpec{Topology: "isp12", Prior: handle}); !errors.Is(err, ErrDraining) {
		t.Errorf("open while draining: %v", err)
	}
	if _, err := engine.OpenInline(context.Background(), StreamSpec{Topology: sc.Topology()}); !errors.Is(err, ErrDraining) {
		t.Errorf("open inline while draining: %v", err)
	}

	// The pre-drain stream drains its submitted bins normally.
	got := drainBatch(stream, bins)
	if len(got) != len(bins) {
		t.Fatalf("pre-drain stream served %d of %d bins", len(got), len(bins))
	}
	for i, est := range got {
		if est.Error != "" {
			t.Errorf("bin %d: %s", i, est.Error)
		}
	}
}
