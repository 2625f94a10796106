package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ictm/internal/estimation"
	"ictm/internal/routing"
	"ictm/internal/topology"
)

func buildMatrix(t *testing.T, spec topology.Spec) *routing.Matrix {
	t.Helper()
	g, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := routing.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// blobFiles returns the store's published blob files under one
// namespace.
func blobFiles(t *testing.T, st *Store, ns string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(st.dir, ns))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, filepath.Join(st.dir, ns, e.Name()))
	}
	return out
}

// TestMatrixRoundTrip: PutMatrix→GetMatrix reproduces the routing
// matrix bitwise, across two independent Store handles on the same
// directory (the multi-replica view).
func TestMatrixRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := topology.Spec{Family: topology.FamilyWaxman, N: 14, Seed: 5}
	m := buildMatrix(t, spec)
	if err := st.PutMatrix(spec.Key(), m); err != nil {
		t.Fatal(err)
	}

	replica, err := Open(dir) // second handle: another process's view
	if err != nil {
		t.Fatal(err)
	}
	back, err := replica.GetMatrix(spec.Key())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.AppendBinary(nil), back.AppendBinary(nil)) {
		t.Fatal("matrix differs after store round trip")
	}
	c := replica.Counters()
	if c.Hits != 1 || c.Misses != 0 || c.Corrupt != 0 {
		t.Fatalf("counters after hit: %+v", c)
	}
	if c := st.Counters(); c.Writes != 1 || c.WriteErrors != 0 {
		t.Fatalf("counters after write: %+v", c)
	}
}

// TestGetMatrixMiss: an unwritten key is ErrNotFound and counts as a
// miss.
func TestGetMatrixMiss(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.GetMatrix("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if c := st.Counters(); c.Misses != 1 || c.Hits != 0 {
		t.Fatalf("counters after miss: %+v", c)
	}
}

// TestCorruptionDetected: any single bit flip and any truncation of a
// published matrix blob turns the read into ErrCorrupt — never a wrong
// matrix, never a panic.
func TestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := topology.Spec{Family: topology.FamilyRingChords, N: 8, Chords: 2, Seed: 1}
	if err := st.PutMatrix(spec.Key(), buildMatrix(t, spec)); err != nil {
		t.Fatal(err)
	}
	files := blobFiles(t, st, NSMatrices)
	if len(files) != 1 {
		t.Fatalf("%d blob files, want 1", len(files))
	}
	orig, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}

	r := rand.New(rand.NewSource(3))
	flip := func(data []byte) []byte {
		mut := append([]byte(nil), data...)
		mut[r.Intn(len(mut))] ^= 1 << r.Intn(8)
		return mut
	}
	for trial := 0; trial < 64; trial++ {
		var mut []byte
		if trial%2 == 0 {
			mut = flip(orig)
		} else {
			mut = orig[:r.Intn(len(orig))]
		}
		if bytes.Equal(mut, orig) {
			continue
		}
		if err := os.WriteFile(files[0], mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := st.GetMatrix(spec.Key()); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("trial %d: err = %v, want ErrCorrupt", trial, err)
		}
	}
	// Rebuild-and-overwrite restores the store.
	if err := st.PutMatrix(spec.Key(), buildMatrix(t, spec)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.GetMatrix(spec.Key()); err != nil {
		t.Fatalf("after overwrite: %v", err)
	}
}

// TestKindConfusionRejected: a JSON blob read as a matrix (or vice
// versa) is ErrCorrupt, not a misparse.
func TestKindConfusionRejected(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutJSON(NSMatrices, "key", map[string]int{"a": 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.GetMatrix("key"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestJSONRoundTrip: PutJSON→GetJSON round-trips records, and EachJSON
// walks every published record exactly once, skipping damaged ones.
func TestJSONRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		Key string `json:"key"`
		N   int    `json:"n"`
	}
	want := map[string]int{"a": 1, "b": 2, "c": 3}
	for k, n := range want {
		if err := st.PutJSON("topologies", k, rec{Key: k, N: n}); err != nil {
			t.Fatal(err)
		}
	}
	var got rec
	if err := st.GetJSON("topologies", "b", &got); err != nil {
		t.Fatal(err)
	}
	if got.Key != "b" || got.N != 2 {
		t.Fatalf("got %+v", got)
	}
	if err := st.GetJSON("topologies", "zzz", &got); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}

	// Damage one record: the walk must still deliver the other two.
	files := blobFiles(t, st, "topologies")
	if err := os.WriteFile(files[0], []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	err = st.EachJSON("topologies", func(payload []byte) error {
		var r rec
		if err := json.Unmarshal(payload, &r); err != nil {
			return err
		}
		seen[r.Key] = r.N
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Fatalf("walk saw %d records after damaging one of 3: %v", len(seen), seen)
	}
	for k, n := range seen {
		if want[k] != n {
			t.Fatalf("walk saw %s=%d, want %d", k, n, want[k])
		}
	}
	if c := st.Counters(); c.Corrupt == 0 {
		t.Fatalf("damaged record not counted: %+v", c)
	}
}

// TestEachJSONEmptyNamespace: walking a namespace that was never
// written is a no-op, not an error (the cold-start warm restart).
func TestEachJSONEmptyNamespace(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	err = st.EachJSON("topologies", func([]byte) error {
		t.Fatal("callback on empty namespace")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPriorStateRoundTrip: random PriorStates survive the store as
// canonical JSON — the decoded state instantiates a prior identical in
// kind and parameters, bitwise.
func TestPriorStateRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(6)
		var state estimation.PriorState
		switch trial % 4 {
		case 0:
			state = estimation.PriorState{Name: "gravity"}
		case 1:
			state = estimation.PriorState{Name: "ic-stable-f", F: 0.05 + 0.9*r.Float64()}
		case 2:
			pref := make([]float64, n)
			for i := range pref {
				pref[i] = r.Float64()
			}
			state = estimation.PriorState{Name: "ic-stable-fP", F: 0.05 + 0.9*r.Float64(), Pref: pref}
		case 3:
			fan := make([][]float64, n)
			for i := range fan {
				fan[i] = make([]float64, n)
				for j := range fan[i] {
					fan[i][j] = r.Float64()
				}
			}
			state = estimation.PriorState{Name: "fanout", Fanout: fan}
		}
		if _, err := state.Prior(n); err != nil {
			t.Fatalf("trial %d: fixture state invalid: %v", trial, err)
		}
		canonical, err := json.Marshal(state)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.PutJSON("priors", "h", state); err != nil {
			t.Fatal(err)
		}
		var back estimation.PriorState
		if err := st.GetJSON("priors", "h", &back); err != nil {
			t.Fatal(err)
		}
		reenc, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canonical, reenc) {
			t.Fatalf("trial %d: canonical JSON differs after round trip:\n%s\n%s", trial, canonical, reenc)
		}
		if _, err := back.Prior(n); err != nil {
			t.Fatalf("trial %d: round-tripped state no longer validates: %v", trial, err)
		}
	}
}

// TestAtomicPublish: a put leaves no temp files behind, and overwriting
// a key replaces the blob in one step.
func TestAtomicPublish(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutJSON("topologies", "k", map[string]string{"v": "1"}); err != nil {
		t.Fatal(err)
	}
	if err := st.PutJSON("topologies", "k", map[string]string{"v": "2"}); err != nil {
		t.Fatal(err)
	}
	files := blobFiles(t, st, "topologies")
	if len(files) != 1 {
		t.Fatalf("%d files after overwrite, want 1 (temp leftovers?)", len(files))
	}
	for _, f := range files {
		if strings.Contains(filepath.Base(f), "tmp") {
			t.Fatalf("temp file left behind: %s", f)
		}
	}
	var got map[string]string
	if err := st.GetJSON("topologies", "k", &got); err != nil {
		t.Fatal(err)
	}
	if got["v"] != "2" {
		t.Fatalf("overwrite lost: %v", got)
	}
}

// TestOpenRejectsEmptyDir: the zero configuration is a caller bug.
func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
}
