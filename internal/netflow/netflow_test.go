package netflow

import (
	"errors"
	"math"
	"testing"

	"ictm/internal/rng"
	"ictm/internal/stats"
	"ictm/internal/tm"
)

func flatSeries(n, T int, value float64) *tm.Series {
	s := tm.NewSeries(n, 300)
	for t := 0; t < T; t++ {
		m := tm.New(n)
		for k := range m.Vec() {
			m.Vec()[k] = value
		}
		_ = s.Append(m)
	}
	return s
}

// sampleSeries thins a copy of every bin of truth with SampleInPlace,
// drawing from one noise stream per series.
func sampleSeries(truth *tm.Series, cfg Config) (*tm.Series, error) {
	r := rng.New(cfg.Seed).Derive("netflow/sample")
	out := tm.NewSeries(truth.N(), truth.BinSeconds)
	for t := 0; t < truth.Len(); t++ {
		m := truth.At(t).Clone()
		if err := SampleInPlace(m, cfg, r); err != nil {
			return nil, err
		}
		if err := out.Append(m); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// relErrors pools |est - truth| / truth over the entries with positive
// truth in every bin.
func relErrors(truth, est *tm.Series) []float64 {
	var out []float64
	for t := 0; t < truth.Len(); t++ {
		ev := est.At(t).Vec()
		for k, v := range truth.At(t).Vec() {
			if v > 0 {
				out = append(out, math.Abs(ev[k]-v)/v)
			}
		}
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Rate: 0, AvgPacketBytes: 800},
		{Rate: 2, AvgPacketBytes: 800},
		{Rate: 0.001, AvgPacketBytes: 0},
	}
	for k, c := range bad {
		if err := c.Validate(); !errors.Is(err, ErrConfig) {
			t.Errorf("case %d: err = %v", k, err)
		}
	}
	good := Config{Rate: 0.001, AvgPacketBytes: 800}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestSampleSeriesUnbiased(t *testing.T) {
	// Large flows: mean sampled estimate must track the truth closely.
	truth := flatSeries(4, 50, 8e7) // 100k packets at 800 B => 100 sampled
	cfg := Config{Rate: 0.001, AvgPacketBytes: 800, Seed: 1}
	est, err := sampleSeries(truth, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sumTruth, sumEst float64
	for tb := 0; tb < truth.Len(); tb++ {
		sumTruth += truth.At(tb).Total()
		sumEst += est.At(tb).Total()
	}
	if rel := math.Abs(sumEst-sumTruth) / sumTruth; rel > 0.01 {
		t.Errorf("aggregate bias %.3f%%, want < 1%%", 100*rel)
	}
}

func TestSampleSeriesVarianceScaling(t *testing.T) {
	// Relative error should shrink roughly like 1/sqrt(expected sampled
	// packets): compare a small-flow and a large-flow series.
	cfg := Config{Rate: 0.001, AvgPacketBytes: 800, Seed: 2}
	small := flatSeries(3, 200, 8e5) // ~1 sampled packet per entry
	big := flatSeries(3, 200, 8e8)   // ~1000 sampled packets per entry

	estSmall, err := sampleSeries(small, cfg)
	if err != nil {
		t.Fatal(err)
	}
	estBig, err := sampleSeries(big, cfg)
	if err != nil {
		t.Fatal(err)
	}
	meanSmall := stats.Mean(relErrors(small, estSmall))
	meanBig := stats.Mean(relErrors(big, estBig))
	// Expected ratio ~ sqrt(1000/1) ≈ 32; demand at least 10x.
	if meanSmall < 10*meanBig {
		t.Errorf("relative error small=%.3f big=%.4f; expected ~30x separation",
			meanSmall, meanBig)
	}
}

func TestSampleSeriesZeroEntriesStayZero(t *testing.T) {
	truth := tm.NewSeries(2, 300)
	m := tm.New(2)
	m.Set(0, 1, 1e7)
	_ = truth.Append(m)
	est, err := sampleSeries(truth, Config{Rate: 0.001, AvgPacketBytes: 800, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if est.At(0).At(1, 0) != 0 || est.At(0).At(0, 0) != 0 {
		t.Error("zero entries must remain zero after sampling")
	}
}

func TestSampleSeriesDeterministic(t *testing.T) {
	truth := flatSeries(3, 5, 1e7)
	cfg := Config{Rate: 0.001, AvgPacketBytes: 800, Seed: 4}
	e1, err := sampleSeries(truth, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := sampleSeries(truth, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for tb := 0; tb < e1.Len(); tb++ {
		for k := range e1.At(tb).Vec() {
			if e1.At(tb).Vec()[k] != e2.At(tb).Vec()[k] {
				t.Fatal("same seed must reproduce sampling noise")
			}
		}
	}
}

func TestSampleMatrix(t *testing.T) {
	x := tm.New(2)
	x.Set(0, 1, 8e8)
	r := rng.New(5)
	if err := SampleInPlace(x, Config{Rate: 0.001, AvgPacketBytes: 800}, r); err != nil {
		t.Fatal(err)
	}
	if x.At(0, 1) <= 0 || x.At(0, 1) == 8e8 {
		t.Errorf("large flow sampled to %g", x.At(0, 1))
	}
	if x.At(1, 0) != 0 {
		t.Error("zero entry must stay zero")
	}
	if err := SampleInPlace(x, Config{}, r); !errors.Is(err, ErrConfig) {
		t.Error("invalid config must fail")
	}
}
