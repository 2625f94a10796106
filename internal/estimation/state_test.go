package estimation

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
)

// TestPriorStateRoundTrip: every serializable prior family reconstructs
// a prior that produces the same matrix as its hand-built counterpart,
// through the JSON wire form a service client would send.
func TestPriorStateRoundTrip(t *testing.T) {
	n := 4
	ing := []float64{4, 3, 2, 1}
	eg := []float64{1, 2, 3, 4}
	pref := []float64{0.4, 0.3, 0.2, 0.1}
	fanout := [][]float64{
		{0.25, 0.25, 0.25, 0.25},
		{0.1, 0.2, 0.3, 0.4},
		{0.4, 0.3, 0.2, 0.1},
		{0.25, 0.25, 0.25, 0.25},
	}
	cases := []struct {
		state PriorState
		want  Prior
	}{
		{PriorState{Name: "gravity"}, GravityPrior{}},
		{PriorState{Name: "ic-stable-f", F: 0.3}, &StableFPrior{F: 0.3}},
		{PriorState{Name: "ic-stable-fP", F: 0.3, Pref: pref}, &StableFPPrior{F: 0.3, Pref: pref}},
		{PriorState{Name: "fanout", Fanout: fanout}, &FanoutPrior{Fanout: fanout}},
	}
	for _, tc := range cases {
		wire, err := json.Marshal(tc.state)
		if err != nil {
			t.Fatalf("%s: marshal: %v", tc.state.Name, err)
		}
		var decoded PriorState
		if err := json.Unmarshal(wire, &decoded); err != nil {
			t.Fatalf("%s: unmarshal: %v", tc.state.Name, err)
		}
		p, err := decoded.Prior(n)
		if err != nil {
			t.Fatalf("%s: Prior: %v", tc.state.Name, err)
		}
		if p.Name() != tc.state.Name {
			t.Errorf("%s: reconstructed prior names itself %q", tc.state.Name, p.Name())
		}
		got, err := p.PriorFor(0, ing, eg)
		if err != nil {
			t.Fatalf("%s: PriorFor: %v", tc.state.Name, err)
		}
		want, err := tc.want.PriorFor(0, ing, eg)
		if err != nil {
			t.Fatalf("%s: reference PriorFor: %v", tc.state.Name, err)
		}
		for i, v := range got.Vec() {
			if math.Float64bits(v) != math.Float64bits(want.Vec()[i]) {
				t.Fatalf("%s: flow %d differs: %g vs %g", tc.state.Name, i, v, want.Vec()[i])
			}
		}
	}
}

// TestPriorStateRejectsMalformed: every malformed client payload fails
// at construction (registration time) with ErrInput and a message
// naming the offending field, not inside the first estimated bin. The
// table walks the error space per family: bad kind, non-finite or
// out-of-range f, missing or mis-sized side information, and network
// size mismatches.
func TestPriorStateRejectsMalformed(t *testing.T) {
	cases := []struct {
		name    string
		state   PriorState
		n       int
		wantMsg string // substring the error must carry for operability
	}{
		// Bad kinds.
		{"missing name", PriorState{}, 4, "without a name"},
		{"unknown name", PriorState{Name: "bogus"}, 4, `unknown prior "bogus"`},
		{"ic-optimal not serializable", PriorState{Name: "ic-optimal"}, 4, "unknown prior"},

		// Forward-ratio range and finiteness (stable-f and stable-fP
		// share checkF).
		{"f missing", PriorState{Name: "ic-stable-f"}, 4, "outside (0,1)"},
		{"f negative", PriorState{Name: "ic-stable-f", F: -0.2}, 4, "outside (0,1)"},
		{"f at one", PriorState{Name: "ic-stable-f", F: 1}, 4, "outside (0,1)"},
		{"f NaN", PriorState{Name: "ic-stable-f", F: math.NaN()}, 4, "outside (0,1)"},
		{"f +Inf", PriorState{Name: "ic-stable-f", F: math.Inf(1)}, 4, "outside (0,1)"},
		{"f -Inf", PriorState{Name: "ic-stable-f", F: math.Inf(-1)}, 4, "outside (0,1)"},
		{"fP f NaN", PriorState{Name: "ic-stable-fP", F: math.NaN(), Pref: []float64{1, 1, 1, 1}}, 4, "outside (0,1)"},

		// Preference-vector shape and content.
		{"pref missing", PriorState{Name: "ic-stable-fP", F: 0.3}, 4, "pref vector of 0"},
		{"pref n mismatch", PriorState{Name: "ic-stable-fP", F: 0.3, Pref: []float64{1, 2}}, 4, "pref vector of 2 for n=4"},
		{"pref negative", PriorState{Name: "ic-stable-fP", F: 0.3, Pref: []float64{1, 2, -1, 3}}, 4, "pref[2]"},
		{"pref NaN", PriorState{Name: "ic-stable-fP", F: 0.3, Pref: []float64{1, 2, math.NaN(), 3}}, 4, "pref[2]"},
		{"pref +Inf", PriorState{Name: "ic-stable-fP", F: 0.3, Pref: []float64{1, 2, math.Inf(1), 3}}, 4, "pref[2]"},
		{"pref -Inf", PriorState{Name: "ic-stable-fP", F: 0.3, Pref: []float64{1, 2, math.Inf(-1), 3}}, 4, "pref[2]"},
		{"pref all zero", PriorState{Name: "ic-stable-fP", F: 0.3, Pref: []float64{0, 0, 0, 0}}, 4, "pref sums to 0"},
		{"pref sum overflows", PriorState{Name: "ic-stable-fP", F: 0.3, Pref: []float64{math.MaxFloat64, math.MaxFloat64, 0, 0}}, 4, "pref sums to +Inf"},

		// Fanout history shape and content.
		{"fanout missing", PriorState{Name: "fanout"}, 2, "fanout of 0 rows"},
		{"fanout row-count mismatch", PriorState{Name: "fanout", Fanout: [][]float64{{1}}}, 2, "fanout of 1 rows for n=2"},
		{"fanout ragged row", PriorState{Name: "fanout", Fanout: [][]float64{{1, 0}, {0}}}, 2, "row 1 has 1 columns"},
		{"fanout NaN", PriorState{Name: "fanout", Fanout: [][]float64{{1, 0}, {0, math.NaN()}}}, 2, "fanout[1][1]"},
		{"fanout negative", PriorState{Name: "fanout", Fanout: [][]float64{{1, 0}, {0, -1}}}, 2, "fanout[1][1]"},

		// Network size.
		{"n zero", PriorState{Name: "gravity"}, 0, "n=0"},
		{"n negative", PriorState{Name: "gravity"}, -3, "n=-3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.state.Prior(tc.n)
			if err == nil {
				t.Fatalf("(%+v).Prior(%d): want error", tc.state, tc.n)
			}
			if !errors.Is(err, ErrInput) {
				t.Errorf("error %v does not wrap ErrInput", err)
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Errorf("error %q does not name the offence %q", err, tc.wantMsg)
			}
		})
	}
}
