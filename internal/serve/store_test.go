package serve

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"ictm/internal/estimation"
	"ictm/internal/store"
	"ictm/internal/topology"
)

// openStore opens a fresh Store handle on dir — each handle models one
// process's view of the shared directory.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// assertBitwiseEqual fails unless two estimate batches are bit-identical.
func assertBitwiseEqual(t *testing.T, want, got []Estimate) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%d estimates vs %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Error != "" || got[i].Error != "" {
			t.Fatalf("bin %d: errors %q vs %q", i, got[i].Error, want[i].Error)
		}
		if want[i].T != got[i].T || want[i].N != got[i].N || want[i].Diag != got[i].Diag {
			t.Fatalf("bin %d: metadata differs: %+v vs %+v", i, got[i], want[i])
		}
		for k := range want[i].Estimate {
			if math.Float64bits(want[i].Estimate[k]) != math.Float64bits(got[i].Estimate[k]) {
				t.Fatalf("bin %d flow %d: %g vs %g", i, k, got[i].Estimate[k], want[i].Estimate[k])
			}
		}
	}
}

// matrixBlobs lists the matrix blob files under a store directory.
func matrixBlobs(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, store.NSMatrices))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, filepath.Join(dir, store.NSMatrices, e.Name()))
	}
	return out
}

// TestEngineStoreCrossReplica: register a topology and prior on engine
// A, estimate the same session by handle on engine B sharing only the
// store directory — the registrations resolve through the store, B
// performs zero routing.Build, and the estimates are bit-identical.
func TestEngineStoreCrossReplica(t *testing.T) {
	sc, d := testScenario(t)
	bins := testBins(t, sc, d)
	dir := t.TempDir()

	a := NewEngine(1, WithStore(openStore(t, dir)))
	if _, created, err := a.RegisterTopology("shared", sc.Topology()); err != nil || !created {
		t.Fatalf("RegisterTopology on A: created=%v err=%v", created, err)
	}
	handle, created, err := a.RegisterPrior("shared", estimation.PriorState{Name: "gravity"})
	if err != nil || !created {
		t.Fatalf("RegisterPrior on A: created=%v err=%v", created, err)
	}
	session := SessionSpec{Topology: "shared", Prior: handle}
	want, err := a.EstimateBatch(context.Background(), session, bins)
	if err != nil {
		t.Fatalf("EstimateBatch on A: %v", err)
	}

	// Replica B: a different engine and Store handle, same directory, no
	// registration calls at all.
	b := NewEngine(1, WithStore(openStore(t, dir)))
	got, err := b.EstimateBatch(context.Background(), session, bins)
	if err != nil {
		t.Fatalf("EstimateBatch on B: %v", err)
	}
	assertBitwiseEqual(t, want, got)

	stats := b.Stats()
	if stats.RoutingBuilds != 0 {
		t.Fatalf("replica B paid %d routing builds, want 0", stats.RoutingBuilds)
	}
	if stats.StoreHits == 0 {
		t.Fatalf("replica B recorded no store hits: %+v", stats)
	}
	if stats.RegisteredTopologies != 1 || stats.RegisteredPriors != 1 {
		t.Fatalf("replica B registries: %+v", stats)
	}

	// Idempotent re-registration and conflicts also see through the
	// store: B never observed A's calls, only the directory.
	if _, created, err := b.RegisterTopology("shared", sc.Topology()); err != nil || created {
		t.Fatalf("re-register on B: created=%v err=%v", created, err)
	}
	other := topology.Spec{Family: topology.FamilyRingChords, N: 6, Chords: 1, Seed: 9}
	c := NewEngine(1, WithStore(openStore(t, dir)))
	if _, _, err := c.RegisterTopology("shared", other); !errors.Is(err, ErrConflict) {
		t.Fatalf("conflicting register on fresh replica: err = %v, want ErrConflict", err)
	}
}

// TestEngineWarmStart: a restarted process (fresh engine, same store
// dir) reopens every registered session at boot — registries full,
// solver pool warm, and serving traffic costs zero routing.Build.
func TestEngineWarmStart(t *testing.T) {
	sc, d := testScenario(t)
	bins := testBins(t, sc, d)
	dir := t.TempDir()

	a := NewEngine(1, WithStore(openStore(t, dir)))
	if _, _, err := a.RegisterTopology("shared", sc.Topology()); err != nil {
		t.Fatal(err)
	}
	gravity, _, err := a.RegisterPrior("shared", estimation.PriorState{Name: "gravity"})
	if err != nil {
		t.Fatal(err)
	}
	stable, _, err := a.RegisterPrior("shared", estimation.PriorState{Name: "ic-stable-f", F: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	session := SessionSpec{Topology: "shared", Prior: gravity}
	want, err := a.EstimateBatch(context.Background(), session, bins)
	if err != nil {
		t.Fatal(err)
	}

	// The restart: nothing survives but the directory.
	b := NewEngine(1, WithStore(openStore(t, dir)))
	topos, priors, err := b.WarmStart()
	if err != nil {
		t.Fatalf("WarmStart: %v", err)
	}
	if topos != 1 || priors != 2 {
		t.Fatalf("WarmStart restored %d topologies, %d priors; want 1, 2", topos, priors)
	}
	stats := b.Stats()
	if stats.RegisteredTopologies != 1 || stats.RegisteredPriors != 2 {
		t.Fatalf("registries after warm start: %+v", stats)
	}
	if stats.Topologies != 1 {
		t.Fatalf("solver pool after warm start holds %d entries, want 1", stats.Topologies)
	}
	if stats.RoutingBuilds != 0 {
		t.Fatalf("warm start paid %d routing builds, want 0", stats.RoutingBuilds)
	}

	got, err := b.EstimateBatch(context.Background(), session, bins)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwiseEqual(t, want, got)
	if _, _, err := b.SessionDims(SessionSpec{Topology: "shared", Prior: stable}); err != nil {
		t.Fatalf("second prior after warm start: %v", err)
	}
	if s := b.Stats(); s.RoutingBuilds != 0 {
		t.Fatalf("serving after warm start paid %d routing builds, want 0", s.RoutingBuilds)
	}
}

// TestWarmStartRequiresStore: warm start without an attached store is a
// configuration error, not a silent no-op.
func TestWarmStartRequiresStore(t *testing.T) {
	if _, _, err := NewEngine(1).WarmStart(); err == nil {
		t.Fatal("WarmStart without a store succeeded")
	}
}

// TestEngineStoreCorruptionFallback: a damaged matrix blob reads as a
// miss — the replica rebuilds (bit-identical results), counts the
// corruption, and overwrites the blob so the next replica hits again.
func TestEngineStoreCorruptionFallback(t *testing.T) {
	sc, d := testScenario(t)
	bins := testBins(t, sc, d)
	dir := t.TempDir()

	a := NewEngine(1, WithStore(openStore(t, dir)))
	if _, _, err := a.RegisterTopology("shared", sc.Topology()); err != nil {
		t.Fatal(err)
	}
	handle, _, err := a.RegisterPrior("shared", estimation.PriorState{Name: "gravity"})
	if err != nil {
		t.Fatal(err)
	}
	session := SessionSpec{Topology: "shared", Prior: handle}
	want, err := a.EstimateBatch(context.Background(), session, bins)
	if err != nil {
		t.Fatal(err)
	}

	blobs := matrixBlobs(t, dir)
	if len(blobs) != 1 {
		t.Fatalf("%d matrix blobs, want 1", len(blobs))
	}
	raw, err := os.ReadFile(blobs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(blobs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	b := NewEngine(1, WithStore(openStore(t, dir)))
	got, err := b.EstimateBatch(context.Background(), session, bins)
	if err != nil {
		t.Fatalf("EstimateBatch over corrupt blob: %v", err)
	}
	assertBitwiseEqual(t, want, got)
	stats := b.Stats()
	if stats.StoreCorrupt == 0 {
		t.Fatalf("corruption not counted: %+v", stats)
	}
	if stats.RoutingBuilds != 1 {
		t.Fatalf("replica B paid %d routing builds over a corrupt blob, want 1", stats.RoutingBuilds)
	}

	// B's rebuild wrote through: a third replica hits clean again.
	c := NewEngine(1, WithStore(openStore(t, dir)))
	if _, err := c.EstimateBatch(context.Background(), session, bins); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.RoutingBuilds != 0 || s.StoreCorrupt != 0 {
		t.Fatalf("replica C after overwrite: %+v", s)
	}
}

// TestEnginePatchWriteThrough: a PATCH-derived topology — its matrix,
// registration record, and carried prior handles — is visible to a
// replica that never saw the delta.
func TestEnginePatchWriteThrough(t *testing.T) {
	sc, d := testScenario(t)
	bins := testBins(t, sc, d)
	dir := t.TempDir()

	a := NewEngine(1, WithStore(openStore(t, dir)))
	if _, _, err := a.RegisterTopology("base", sc.Topology()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.RegisterPrior("base", estimation.PriorState{Name: "gravity"}); err != nil {
		t.Fatal(err)
	}
	g, err := sc.Topology().Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.PatchTopology("base", removableDelta(t, g))
	if err != nil {
		t.Fatalf("PatchTopology: %v", err)
	}
	info, err := a.Topology(res.Key)
	if err != nil {
		t.Fatal(err)
	}
	if info.Priors != 1 {
		t.Fatalf("derived topology carries %d priors, want 1", info.Priors)
	}
	derivedHandle, created, err := a.RegisterPrior(res.Key, estimation.PriorState{Name: "gravity"})
	if err != nil || created {
		t.Fatalf("carried prior not idempotent: created=%v err=%v", created, err)
	}
	session := SessionSpec{Topology: res.Key, Prior: derivedHandle}
	// The derived observation space differs from the base (a link was
	// removed): re-derive the bins against the derived topology.
	derivedBins := make([]Bin, len(bins))
	for i := range bins {
		y, err := engineLinkLoads(a, info.Spec, d.Series.At(i))
		if err != nil {
			t.Fatal(err)
		}
		derivedBins[i] = Bin{T: i, Y: y}
	}
	want, err := a.EstimateBatch(context.Background(), session, derivedBins)
	if err != nil {
		t.Fatal(err)
	}

	b := NewEngine(1, WithStore(openStore(t, dir)))
	got, err := b.EstimateBatch(context.Background(), session, derivedBins)
	if err != nil {
		t.Fatalf("EstimateBatch on replica for derived key: %v", err)
	}
	assertBitwiseEqual(t, want, got)
	if s := b.Stats(); s.RoutingBuilds != 0 {
		t.Fatalf("replica paid %d routing builds for a patched topology, want 0", s.RoutingBuilds)
	}
	dinfo, err := b.Topology(res.Key)
	if err != nil {
		t.Fatal(err)
	}
	if dinfo.Version != 1 || dinfo.Base != "base" {
		t.Fatalf("lineage lost across the store: %+v", dinfo)
	}
}

// TestEngineStoreWriteFailuresNonFatal: a read-only store directory
// breaks every write-through, yet registration and serving carry on —
// the failures only surface in telemetry.
func TestEngineStoreWriteFailuresNonFatal(t *testing.T) {
	if os.Getuid() == 0 {
		t.Skip("directory write permissions are advisory for root")
	}
	sc, d := testScenario(t)
	bins := testBins(t, sc, d)
	dir := t.TempDir()
	st := openStore(t, dir)
	for _, sub := range []string{store.NSMatrices, "topologies", "priors"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.Chmod(filepath.Join(dir, sub), 0o555); err != nil {
			t.Fatal(err)
		}
		defer os.Chmod(filepath.Join(dir, sub), 0o755)
	}

	engine := NewEngine(1, WithStore(st))
	if _, _, err := engine.RegisterTopology("shared", sc.Topology()); err != nil {
		t.Fatalf("RegisterTopology with failing store: %v", err)
	}
	handle, _, err := engine.RegisterPrior("shared", estimation.PriorState{Name: "gravity"})
	if err != nil {
		t.Fatalf("RegisterPrior with failing store: %v", err)
	}
	if _, err := engine.EstimateBatch(context.Background(), SessionSpec{Topology: "shared", Prior: handle}, bins); err != nil {
		t.Fatalf("EstimateBatch with failing store: %v", err)
	}
	if s := engine.Stats(); s.StoreWriteErrors == 0 {
		t.Fatalf("write failures not counted: %+v", s)
	}
}
