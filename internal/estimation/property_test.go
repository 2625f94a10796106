package estimation

import (
	"math"
	"testing"

	"ictm/internal/tm"
)

// Property: Project is idempotent — re-projecting an already-feasible
// estimate leaves it unchanged.
func TestProjectIdempotent(t *testing.T) {
	rm, truth, _ := fixture(t, 8, 2, 0.2, 40)
	solver, err := NewSolver(rm)
	if err != nil {
		t.Fatal(err)
	}
	for tb := 0; tb < truth.Len(); tb++ {
		x := truth.At(tb)
		y, err := rm.LinkLoads(x)
		if err != nil {
			t.Fatal(err)
		}
		prior, err := GravityPrior{}.PriorFor(tb, x.Ingress(), x.Egress())
		if err != nil {
			t.Fatal(err)
		}
		once, _, err := solver.Project(prior, y, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		twice, _, err := solver.Project(once, y, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		for k := range once.Vec() {
			if math.Abs(once.Vec()[k]-twice.Vec()[k]) > 1e-6*(1+math.Abs(once.Vec()[k])) {
				t.Fatalf("bin %d: projection not idempotent at %d", tb, k)
			}
		}
	}
}

// Property: the projected estimate is the closest feasible point to the
// prior — any other feasible point (e.g. the truth itself) must be at
// least as far from the prior in L2.
func TestProjectMinimality(t *testing.T) {
	rm, truth, _ := fixture(t, 8, 3, 0.2, 41)
	solver, err := NewSolver(rm)
	if err != nil {
		t.Fatal(err)
	}
	for tb := 0; tb < truth.Len(); tb++ {
		x := truth.At(tb)
		y, err := rm.LinkLoads(x)
		if err != nil {
			t.Fatal(err)
		}
		prior, err := GravityPrior{}.PriorFor(tb, x.Ingress(), x.Egress())
		if err != nil {
			t.Fatal(err)
		}
		est, _, err := solver.Project(prior, y, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		dEst := l2dist(prior, est)
		dTruth := l2dist(prior, x)
		if dEst > dTruth*(1+1e-9) {
			t.Fatalf("bin %d: projection distance %g exceeds truth distance %g",
				tb, dEst, dTruth)
		}
	}
}

func l2dist(a, b *tm.TrafficMatrix) float64 {
	var s float64
	av, bv := a.Vec(), b.Vec()
	for k := range av {
		d := av[k] - bv[k]
		s += d * d
	}
	return math.Sqrt(s)
}

// Property: IPF preserves the grand total when row and column targets
// agree in sum.
func TestIPFPreservesTotal(t *testing.T) {
	rm, truth, _ := fixture(t, 7, 1, 0.2, 42)
	_ = rm
	x := truth.At(0).Clone()
	rows := truth.At(0).Ingress()
	cols := truth.At(0).Egress()
	// Perturb x away from the targets first.
	for k := range x.Vec() {
		x.Vec()[k] *= 1.7
	}
	if _, err := IPF(x, rows, cols, 1e-10, 300); err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, v := range rows {
		want += v
	}
	if math.Abs(x.Total()-want) > 1e-6*want {
		t.Errorf("IPF total %g, want %g", x.Total(), want)
	}
}
