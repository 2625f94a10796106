package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/64 identical draws across different seeds", same)
	}
}

func TestDeriveIndependent(t *testing.T) {
	p := New(7)
	a := p.Derive("activities")
	b := p.Derive("preferences")
	a2 := New(7).Derive("activities")
	if a.Uint64() != a2.Uint64() {
		t.Error("Derive not deterministic")
	}
	if a.Uint64() == b.Uint64() {
		t.Error("Derive streams for different labels should differ")
	}
}

func TestFloat64Range(t *testing.T) {
	p := New(3)
	for i := 0; i < 10000; i++ {
		v := p.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %g out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	p := New(4)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += p.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %g, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	p := New(5)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		counts[p.Intn(7)]++
	}
	for k, c := range counts {
		if c < 8800 || c > 11200 {
			t.Errorf("Intn(7) bucket %d count %d far from 10000", k, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) must panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	p := New(6)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := p.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %g, want ~1", variance)
	}
}

func TestLogNormalMedian(t *testing.T) {
	p := New(8)
	const n = 100001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = p.LogNormal(2, 0.5)
	}
	// Median of lognormal(mu, sigma) is exp(mu).
	below := 0
	want := math.Exp(2.0)
	for _, v := range vals {
		if v < want {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("fraction below exp(mu) = %g, want ~0.5", frac)
	}
}

func TestTruncNormalBounds(t *testing.T) {
	p := New(9)
	for i := 0; i < 5000; i++ {
		v := p.TruncNormal(0.25, 0.1, 0.05, 0.45)
		if v < 0.05 || v > 0.45 {
			t.Fatalf("TruncNormal = %g out of bounds", v)
		}
	}
}

func TestTruncNormalDegenerate(t *testing.T) {
	// Truncation window far from the mean: must still terminate and clamp.
	p := New(10)
	v := p.TruncNormal(0, 0.001, 5, 6)
	if v < 5 || v > 6 {
		t.Errorf("degenerate TruncNormal = %g, want in [5,6]", v)
	}
}

func TestExpMean(t *testing.T) {
	p := New(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += p.Exp(2)
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Exp(2) mean = %g, want ~0.5", mean)
	}
}

func TestZipfSkew(t *testing.T) {
	p := New(13)
	counts := make([]int, 6)
	for i := 0; i < 60000; i++ {
		k := p.Zipf(5, 1)
		if k < 1 || k > 5 {
			t.Fatalf("Zipf out of range: %d", k)
		}
		counts[k]++
	}
	if counts[1] <= counts[2] || counts[2] <= counts[3] {
		t.Errorf("Zipf counts not decreasing: %v", counts[1:])
	}
	// Ratio count(1)/count(2) should be near 2 for s=1.
	ratio := float64(counts[1]) / float64(counts[2])
	if ratio < 1.7 || ratio > 2.3 {
		t.Errorf("Zipf ratio = %g, want ~2", ratio)
	}
}

func TestPoissonMean(t *testing.T) {
	p := New(14)
	for _, mean := range []float64{0.5, 4, 50} {
		const n = 50000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(p.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean) > 0.05*mean+0.05 {
			t.Errorf("Poisson(%g) mean = %g", mean, got)
		}
	}
	if p.Poisson(0) != 0 {
		t.Error("Poisson(0) must be 0")
	}
}

func TestPermIsPermutation(t *testing.T) {
	p := New(15)
	perm := p.Perm(20)
	seen := make([]bool, 20)
	for _, v := range perm {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("invalid permutation: %v", perm)
		}
		seen[v] = true
	}
}

func TestDeriveIndexDeterministic(t *testing.T) {
	a := New(7).Derive("noise").DeriveIndex(12)
	b := New(7).Derive("noise").DeriveIndex(12)
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("DeriveIndex not deterministic")
		}
	}
}

func TestDeriveIndexStreamsDiffer(t *testing.T) {
	p := New(7).Derive("noise")
	// Adjacent and distant indices must all yield distinct first draws.
	seen := make(map[uint64]uint64)
	for _, i := range []uint64{0, 1, 2, 3, 100, 1000, 1 << 40} {
		v := p.DeriveIndex(i).Uint64()
		if j, dup := seen[v]; dup {
			t.Errorf("indices %d and %d collide on first draw", i, j)
		}
		seen[v] = i
	}
}

func TestDeriveIndexDoesNotConsumeParent(t *testing.T) {
	a := New(9)
	b := New(9)
	_ = a.DeriveIndex(3)
	_ = a.DeriveIndex(4)
	if a.Uint64() != b.Uint64() {
		t.Error("DeriveIndex must not consume parent variates")
	}
}

func TestDeriveIndexDependsOnSeed(t *testing.T) {
	if New(1).DeriveIndex(5).Uint64() == New(2).DeriveIndex(5).Uint64() {
		t.Error("DeriveIndex must depend on the parent seed")
	}
}

func TestDeriveDependsOnSeed(t *testing.T) {
	a := New(1).Derive("x")
	b := New(2).Derive("x")
	if a.Uint64() == b.Uint64() {
		t.Error("Derive must depend on the parent seed")
	}
}
