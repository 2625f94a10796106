package estimation

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"ictm/internal/routing"
	"ictm/internal/synth"
	"ictm/internal/tm"
	"ictm/internal/topology"
)

// estimatorFixture builds a small scenario, its routing matrix and one
// week of truth for session-API tests.
func estimatorFixture(t *testing.T) (*routing.Matrix, *tm.Series) {
	t.Helper()
	sc := synth.GeantLike()
	sc.N = 10
	sc.BinsPerWeek = 14
	sc.Weeks = 1
	d, err := synth.Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := topology.Waxman(10, 0.6, 0.4, sc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := routing.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	return rm, d.Series
}

// TestEstimatorWithDerivesWithoutMutating: With returns a derived
// session over the same solver and leaves the receiver untouched, and
// both sessions keep the determinism contract.
func TestEstimatorWithDerivesWithoutMutating(t *testing.T) {
	rm, truth := estimatorFixture(t)
	base, err := NewEstimator(rm)
	if err != nil {
		t.Fatal(err)
	}
	derived := base.With(WithSkipIPF(true), WithWorkers(8))
	if derived.Solver() != base.Solver() {
		t.Fatal("With must share the solver")
	}
	if base.opts.SkipIPF || base.opts.Workers != 0 {
		t.Fatalf("With mutated the receiver: %+v", base.opts)
	}

	rBase, err := base.EstimateSeries(truth, GravityPrior{})
	if err != nil {
		t.Fatal(err)
	}
	rDerived, err := derived.EstimateSeries(truth, GravityPrior{})
	if err != nil {
		t.Fatal(err)
	}
	if rBase.Stats.IPFSweepsTotal == 0 {
		t.Error("base session must run IPF")
	}
	if rDerived.Stats.IPFSweepsTotal != 0 {
		t.Error("derived SkipIPF session ran IPF")
	}
}

// TestEstimatorRegisterPrior: registration validates against the
// session's n and the handle estimates identically to the hand-built
// prior; malformed state fails with ErrInput at registration.
func TestEstimatorRegisterPrior(t *testing.T) {
	rm, truth := estimatorFixture(t)
	est, err := NewEstimator(rm)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := est.RegisterPrior(PriorState{Name: "ic-stable-f", F: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	rReg, err := est.EstimateSeries(truth, reg)
	if err != nil {
		t.Fatal(err)
	}
	rHand, err := est.EstimateSeries(truth, &StableFPrior{F: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rReg.Errors {
		if math.Float64bits(rReg.Errors[i]) != math.Float64bits(rHand.Errors[i]) {
			t.Fatalf("bin %d: registered prior diverged from hand-built prior", i)
		}
	}
	if _, err := est.RegisterPrior(PriorState{Name: "ic-stable-fP", F: 0.3, Pref: []float64{1}}); !errors.Is(err, ErrInput) {
		t.Errorf("n-mismatched registration: %v", err)
	}
}

// TestEstimatorRejectsMismatchedSeries: a series over the wrong node
// count fails with ErrInput before any bin is estimated.
func TestEstimatorRejectsMismatchedSeries(t *testing.T) {
	rm, _ := estimatorFixture(t)
	est, err := NewEstimator(rm)
	if err != nil {
		t.Fatal(err)
	}
	wrong := tm.NewSeries(rm.N+1, 300)
	if err := wrong.Append(tm.New(rm.N + 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := est.EstimateSeries(wrong, GravityPrior{}); !errors.Is(err, ErrInput) {
		t.Errorf("mismatched series: %v", err)
	}
	if _, err := NewEstimator(nil); !errors.Is(err, ErrInput) {
		t.Errorf("nil routing matrix: %v", err)
	}
}

// countingPrior is the gravity prior under a chosen name, counting the
// bins it is asked for.
type countingPrior struct {
	name  string
	calls *atomic.Int64
}

func (p countingPrior) Name() string { return p.name }

func (p countingPrior) PriorFor(t int, ingress, egress []float64) (*tm.TrafficMatrix, error) {
	p.calls.Add(1)
	return GravityPrior{}.PriorFor(t, ingress, egress)
}

// TestCompareRejectsDuplicatePriorNames: Compare keys its results by
// prior name, so two priors sharing a name (two calibrations of the same
// family) would lose one result. It fails with ErrInput before any bin
// is estimated.
func TestCompareRejectsDuplicatePriorNames(t *testing.T) {
	rm, truth := estimatorFixture(t)
	est, err := NewEstimator(rm)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.Compare(truth, []Prior{&StableFPrior{F: 0.2}, &StableFPrior{F: 0.3}}); !errors.Is(err, ErrInput) {
		t.Fatalf("two %q priors: err = %v, want ErrInput", (&StableFPrior{}).Name(), err)
	}
	var calls atomic.Int64
	priors := []Prior{countingPrior{"a", &calls}, countingPrior{"b", &calls}, countingPrior{"a", &calls}}
	if _, err := est.Compare(truth, priors); !errors.Is(err, ErrInput) {
		t.Fatalf("two priors named \"a\": err = %v, want ErrInput", err)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("%d bins estimated before the duplicate name was rejected", n)
	}
	res, err := est.Compare(truth, priors[:2])
	if err != nil || len(res) != 2 {
		t.Fatalf("distinct names: %d results, err %v", len(res), err)
	}
}
