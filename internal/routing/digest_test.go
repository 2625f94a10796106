package routing

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"ictm/internal/synth"
	"ictm/internal/topology"
)

// buildDigests pins the SHA-256 of Build's binary encoding (layout, CSR
// column indices and value bits) for the evaluation topologies and a few
// generator families. The digests were recorded with the per-pair
// Dijkstra Build, before Build moved onto shared distance tables; any
// moved bit in the shortest-path or ECMP kernel fails here, which
// TestPatchMatchesRebuild cannot see once Patch and Build share that
// kernel.
var buildDigests = map[string]string{
	"geant-like":          "efe9ea7d14178ea3f6cb40df5fa60da2382aa3384afa45ac7f1a5082ee90f8f4",
	"isp-40":              "b5794b29d6e1966f969d667bbbf4a2811e86895bbcc22da6c53f7d95682884d0",
	"isp-100":             "6019f55a3900de0789a98f93b46764d2086e118cf412b513964d4d032033362e",
	"isp-200":             "d27f84950fa0e45a7c895d65ea1d84f4eca6472f76648df3b2ee35e559a424cc",
	"waxman-30/seed=1":    "e2cb7b1eb9330c8473314b6c9cb31b6db9e3f19181d90f5f861f30a03a4c26b2",
	"waxman-30/seed=2":    "3c4a7450ba9aaa6e69d6d091f59bddb61568e136b4b2371334bf5b9d3a1a510a",
	"waxman-30/seed=3":    "a7706bad53a2d3139e29474d3cbbc08c779ec9f33f9004e92e955d33e207c2f0",
	"unit-ring-chords-24": "14bb6a5004554d2bde0c6c7e4807bb36ec93425a19d1644f024979a797799e47",
}

// withWeights returns a copy of g with every link weight w set to f(w).
func withWeights(g *topology.Graph, f func(w float64) float64) (*topology.Graph, error) {
	out := topology.NewGraph(g.N())
	for _, e := range g.Edges() {
		if _, err := out.AddEdge(e.From, e.To, f(e.Weight)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// unitRingChords is RingChords(n, chords, seed) with every weight set to
// 1, so equal-cost ties are common and the digest covers ECMP splits.
func unitRingChords(n, chords int, seed uint64) (*topology.Graph, error) {
	g, err := topology.RingChords(n, chords, seed)
	if err != nil {
		return nil, err
	}
	return withWeights(g, func(float64) float64 { return 1 })
}

func TestBuildDigestsPinned(t *testing.T) {
	scenario := func(sc synth.Scenario) func() (*topology.Graph, error) {
		return sc.Topology().Build
	}
	cases := []struct {
		name string
		make func() (*topology.Graph, error)
		long bool // skipped in -short
		ties bool // must contain an ECMP split (a link entry below 1)
	}{
		{"geant-like", scenario(synth.GeantLike()), false, false},
		{"isp-40", scenario(synth.ISPLike(40)), false, false},
		{"isp-100", scenario(synth.ISPLike(100)), false, false},
		{"isp-200", scenario(synth.ISPLike(200)), true, false},
		{"waxman-30/seed=1", func() (*topology.Graph, error) { return topology.Waxman(30, 0.6, 0.4, 1) }, false, false},
		{"waxman-30/seed=2", func() (*topology.Graph, error) { return topology.Waxman(30, 0.6, 0.4, 2) }, false, false},
		{"waxman-30/seed=3", func() (*topology.Graph, error) { return topology.Waxman(30, 0.6, 0.4, 3) }, false, false},
		{"unit-ring-chords-24", func() (*topology.Graph, error) { return unitRingChords(24, 8, 5) }, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("n=200 build skipped in -short")
			}
			g, err := tc.make()
			if err != nil {
				t.Fatalf("make graph: %v", err)
			}
			m, err := Build(g)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			if tc.ties && !hasSplit(m) {
				t.Fatal("no OD pair splits over equal-cost paths")
			}
			sum := sha256.Sum256(m.AppendBinary(nil))
			got := hex.EncodeToString(sum[:])
			if want, ok := buildDigests[tc.name]; !ok || got != want {
				t.Errorf("digest %s, want %s", got, want)
			}
		})
	}
}

// hasSplit reports whether some link row of m carries a fraction below
// 1, i.e. some OD pair splits over equal-cost paths.
func hasSplit(m *Matrix) bool {
	for r := 0; r < m.L; r++ {
		_, vals := m.CSR().RowEntries(r)
		for _, v := range vals {
			if v < 1 {
				return true
			}
		}
	}
	return false
}
