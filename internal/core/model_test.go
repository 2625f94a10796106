package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"ictm/internal/rng"
	"ictm/internal/tm"
)

// randParams draws a random valid parameter set with n nodes.
func randParams(p *rng.PCG, n int) *Params {
	out := &Params{
		F:        0.05 + 0.9*p.Float64(),
		Activity: make([]float64, n),
		Pref:     make([]float64, n),
	}
	for i := 0; i < n; i++ {
		out.Activity[i] = p.LogNormal(10, 1)
		out.Pref[i] = p.LogNormal(-4.3, 1.7)
	}
	return out
}

func TestValidate(t *testing.T) {
	good := &Params{F: 0.25, Activity: []float64{1, 2}, Pref: []float64{0.5, 0.5}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	cases := []*Params{
		{F: 0.25, Activity: nil, Pref: nil},
		{F: 0.25, Activity: []float64{1}, Pref: []float64{1, 2}},
		{F: -0.1, Activity: []float64{1}, Pref: []float64{1}},
		{F: 1.1, Activity: []float64{1}, Pref: []float64{1}},
		{F: math.NaN(), Activity: []float64{1}, Pref: []float64{1}},
		{F: 0.25, Activity: []float64{-1}, Pref: []float64{1}},
		{F: 0.25, Activity: []float64{1}, Pref: []float64{-1}},
		{F: 0.25, Activity: []float64{1}, Pref: []float64{0}},
	}
	for k, c := range cases {
		if err := c.Validate(); !errors.Is(err, ErrParams) {
			t.Errorf("case %d: err = %v, want ErrParams", k, err)
		}
	}
}

func TestNormalizedPref(t *testing.T) {
	p := &Params{F: 0.2, Activity: []float64{1, 1}, Pref: []float64{2, 6}}
	norm := p.NormalizedPref()
	if math.Abs(norm[0]-0.25) > 1e-15 || math.Abs(norm[1]-0.75) > 1e-15 {
		t.Errorf("NormalizedPref = %v", norm)
	}
}

func TestEvaluateHandChecked(t *testing.T) {
	// n=2, f=0.25, A=(8,4), P=(0.5,0.5) normalized.
	// X_01 = 0.25*8*0.5 + 0.75*4*0.5 = 1 + 1.5 = 2.5
	// X_10 = 0.25*4*0.5 + 0.75*8*0.5 = 0.5 + 3 = 3.5
	// X_00 = 0.25*8*0.5 + 0.75*8*0.5 = 4; X_11 = 2.
	p := &Params{F: 0.25, Activity: []float64{8, 4}, Pref: []float64{1, 1}}
	x, err := p.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{4, 2.5}, {3.5, 2}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if math.Abs(x.At(i, j)-want[i][j]) > 1e-12 {
				t.Errorf("X[%d][%d] = %g, want %g", i, j, x.At(i, j), want[i][j])
			}
		}
	}
}

// Conservation property: total traffic equals total activity (every byte
// of every connection is attributed to its initiator's activity).
func TestConservationProperty(t *testing.T) {
	p := rng.New(20)
	for trial := 0; trial < 50; trial++ {
		n := 2 + p.Intn(20)
		params := randParams(p, n)
		x, err := params.Evaluate()
		if err != nil {
			t.Fatal(err)
		}
		var sa float64
		for _, a := range params.Activity {
			sa += a
		}
		if rel := math.Abs(x.Total()-sa) / sa; rel > 1e-12 {
			t.Fatalf("trial %d: total %g != activity sum %g", trial, x.Total(), sa)
		}
	}
}

// Marginal property: Marginals() matches the explicit matrix's row and
// column sums (validates eq. 10 against eq. 2).
func TestMarginalsMatchMatrix(t *testing.T) {
	p := rng.New(21)
	for trial := 0; trial < 50; trial++ {
		n := 2 + p.Intn(15)
		params := randParams(p, n)
		x, err := params.Evaluate()
		if err != nil {
			t.Fatal(err)
		}
		ing, eg, err := marginals(params)
		if err != nil {
			t.Fatal(err)
		}
		xin, xeg := x.Ingress(), x.Egress()
		for i := 0; i < n; i++ {
			if math.Abs(ing[i]-xin[i]) > 1e-9*(1+xin[i]) {
				t.Fatalf("trial %d: ingress[%d] %g != %g", trial, i, ing[i], xin[i])
			}
			if math.Abs(eg[i]-xeg[i]) > 1e-9*(1+xeg[i]) {
				t.Fatalf("trial %d: egress[%d] %g != %g", trial, i, eg[i], xeg[i])
			}
		}
	}
}

// Symmetry property: with f = 1/2 the model matrix is symmetric.
func TestHalfFSymmetry(t *testing.T) {
	p := rng.New(22)
	params := randParams(p, 10)
	params.F = 0.5
	x, err := params.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			if math.Abs(x.At(i, j)-x.At(j, i)) > 1e-9 {
				t.Fatalf("f=1/2 matrix not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

// Scale property: scaling all activities by c scales the matrix by c.
func TestActivityScalingQuick(t *testing.T) {
	f := func(seed uint64, scaleRaw float64) bool {
		scale := 0.1 + math.Mod(math.Abs(scaleRaw), 10)
		if math.IsNaN(scale) {
			return true
		}
		p := rng.New(seed)
		params := randParams(p, 5)
		x1, err := params.Evaluate()
		if err != nil {
			return false
		}
		scaled := cloneParams(params)
		for i := range scaled.Activity {
			scaled.Activity[i] *= scale
		}
		x2, err := scaled.Evaluate()
		if err != nil {
			return false
		}
		for k, v := range x1.Vec() {
			if math.Abs(v*scale-x2.Vec()[k]) > 1e-9*(1+math.Abs(v*scale)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Preference-normalization property: scaling P leaves the model invariant.
func TestPrefScaleInvarianceQuick(t *testing.T) {
	f := func(seed uint64, scaleRaw float64) bool {
		scale := 0.1 + math.Mod(math.Abs(scaleRaw), 100)
		if math.IsNaN(scale) {
			return true
		}
		p := rng.New(seed)
		params := randParams(p, 6)
		x1, err := params.Evaluate()
		if err != nil {
			return false
		}
		scaled := cloneParams(params)
		for i := range scaled.Pref {
			scaled.Pref[i] *= scale
		}
		x2, err := scaled.Evaluate()
		if err != nil {
			return false
		}
		for k, v := range x1.Vec() {
			if math.Abs(v-x2.Vec()[k]) > 1e-9*(1+math.Abs(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFig2Example(t *testing.T) {
	params, x := Fig2Example()
	// The paper's quoted conditional probabilities.
	cases := []struct {
		i, j int
		want float64
	}{
		{0, 0, 200.0 / 403},
		{1, 0, 102.0 / 109},
		{2, 0, 101.0 / 106},
	}
	for _, c := range cases {
		got := ConditionalEgressProb(x, c.i, c.j)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("P[E=%d|I=%d] = %g, want %g", c.j, c.i, got, c.want)
		}
	}
	if tot := x.Total(); tot != 618 {
		t.Errorf("total = %g, want 618", tot)
	}
	// The example matrix must equal the IC-model evaluation of its params.
	ev, err := params.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if math.Abs(ev.At(i, j)-x.At(i, j)) > 1e-9 {
				t.Errorf("model X[%d][%d] = %g, example %g", i, j, ev.At(i, j), x.At(i, j))
			}
		}
	}
	// Marginal egress share of node A.
	if pa := x.Egress()[0] / x.Total(); math.Abs(pa-403.0/618) > 1e-12 {
		t.Errorf("P[E=A] = %g, want %g", pa, 403.0/618)
	}
}

func TestConditionalEgressProbZeroRow(t *testing.T) {
	x := tm.New(2)
	if got := ConditionalEgressProb(x, 0, 1); got != 0 {
		t.Errorf("zero-row conditional = %g, want 0", got)
	}
}

func TestGeneralModelReducesToSimplified(t *testing.T) {
	p := rng.New(23)
	params := randParams(p, 8)
	gen := &GeneralParams{
		F:        make([][]float64, 8),
		Activity: params.Activity,
		Pref:     params.Pref,
	}
	for i := range gen.F {
		gen.F[i] = make([]float64, 8)
		for j := range gen.F[i] {
			gen.F[i][j] = params.F
		}
	}
	want, err := params.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	got, err := gen.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	for k := range want.Vec() {
		if math.Abs(want.Vec()[k]-got.Vec()[k]) > 1e-9 {
			t.Fatalf("general with constant f != simplified at %d", k)
		}
	}
}

func TestGeneralModelConservation(t *testing.T) {
	p := rng.New(24)
	n := 7
	gen := &GeneralParams{
		F:        make([][]float64, n),
		Activity: make([]float64, n),
		Pref:     make([]float64, n),
	}
	for i := 0; i < n; i++ {
		gen.Activity[i] = p.LogNormal(8, 1)
		gen.Pref[i] = p.Float64() + 0.01
		gen.F[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			gen.F[i][j] = p.Float64()
		}
	}
	x, err := gen.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	var sa float64
	for _, a := range gen.Activity {
		sa += a
	}
	if rel := math.Abs(x.Total()-sa) / sa; rel > 1e-12 {
		t.Errorf("general conservation: total %g vs ΣA %g", x.Total(), sa)
	}
}

func TestGeneralValidate(t *testing.T) {
	bad := &GeneralParams{
		F:        [][]float64{{0.2}},
		Activity: []float64{1, 2},
		Pref:     []float64{1, 1},
	}
	if err := bad.Validate(); !errors.Is(err, ErrParams) {
		t.Errorf("short F: err = %v", err)
	}
	bad2 := &GeneralParams{
		F:        [][]float64{{0.2, 1.5}, {0.2, 0.2}},
		Activity: []float64{1, 2},
		Pref:     []float64{1, 1},
	}
	if err := bad2.Validate(); !errors.Is(err, ErrParams) {
		t.Errorf("out-of-range f: err = %v", err)
	}
}

// cloneParams returns a deep copy of p.
func cloneParams(p *Params) *Params {
	return &Params{
		F:        p.F,
		Activity: append([]float64(nil), p.Activity...),
		Pref:     append([]float64(nil), p.Pref...),
	}
}

// marginals returns the model-implied ingress and egress node totals
// in closed form (eq. 10 and its egress twin), the input the marginal
// inversions start from:
//
//	X_i* = f·A_i + (1-f)·S_A·p_i
//	X_*i = f·S_A·p_i + (1-f)·A_i
func marginals(p *Params) (ingress, egress []float64, err error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	norm := p.NormalizedPref()
	var sa float64
	for _, a := range p.Activity {
		sa += a
	}
	ingress = make([]float64, p.N())
	egress = make([]float64, p.N())
	for i := range ingress {
		ingress[i] = p.F*p.Activity[i] + (1-p.F)*sa*norm[i]
		egress[i] = p.F*sa*norm[i] + (1-p.F)*p.Activity[i]
	}
	return ingress, egress, nil
}
