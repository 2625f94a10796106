package estimation

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// groupObservations builds a 24-bin observation stream over the warm
// fixture mixing clean bins with every per-bin defect: masked bins (two
// NaN links), one bin below the observability floor, one wrong-length
// bin and one NaN marginal. It returns the stream and its clean count.
func groupObservations(t *testing.T) ([]Observation, *Estimator, int) {
	t.Helper()
	rm, truth := warmFixture(t, 24)
	est, err := NewEstimator(rm)
	if err != nil {
		t.Fatal(err)
	}
	obs := make([]Observation, truth.Len())
	clean := 0
	for i := range obs {
		y, err := rm.LinkLoads(truth.At(i))
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case i == 5:
			for l := 0; l <= rm.L/2; l++ {
				y[l] = math.NaN()
			}
		case i == 11:
			y = y[:len(y)-1]
		case i == 17:
			y[rm.L] = math.NaN()
		case i%7 == 2:
			y[i%rm.L], y[(i+3)%rm.L] = math.NaN(), math.NaN()
		default:
			clean++
		}
		obs[i] = Observation{T: i, Y: y}
	}
	return obs, est, clean
}

// requireOutcomeIsEstimateBin fails unless o is exactly what EstimateBin
// returns for the observation: error text, diagnostics, estimate bits.
func requireOutcomeIsEstimateBin(t *testing.T, label string, est *Estimator, prior Prior, ob Observation, o BinOutcome) {
	t.Helper()
	want, diag, err := est.EstimateBin(prior, ob.T, ob.Y)
	if (err == nil) != (o.Err == nil) || (err != nil && err.Error() != o.Err.Error()) {
		t.Fatalf("%s bin %d: error %v, EstimateBin %v", label, ob.T, o.Err, err)
	}
	if o.Diag != diag {
		t.Fatalf("%s bin %d: diag %+v, EstimateBin %+v", label, ob.T, o.Diag, diag)
	}
	if err != nil {
		if o.Estimate != nil {
			t.Fatalf("%s bin %d: estimate beside error %v", label, ob.T, err)
		}
		return
	}
	got, ref := o.Estimate.Vec(), want.Vec()
	for k := range ref {
		if math.Float64bits(got[k]) != math.Float64bits(ref[k]) {
			t.Fatalf("%s bin %d flow %d: %x, EstimateBin %x", label, ob.T, k,
				math.Float64bits(got[k]), math.Float64bits(ref[k]))
		}
	}
}

// TestEstimateBinsMatchesEstimateBin: the grouped entry point returns,
// bin for bin, exactly what EstimateBin returns — for every option set
// the blocked solve serves or bypasses. Clean bins of an unweighted
// session take LSQRMulti in blocks of up to coldBlockK; a
// remainder below minBlockLanes (here one lane) solves through LSQR.
func TestEstimateBinsMatchesEstimateBin(t *testing.T) {
	obs, base, clean := groupObservations(t)
	if clean <= coldBlockK || (clean-coldBlockK) >= minBlockLanes {
		t.Fatalf("fixture has %d clean bins; want one full block plus a short remainder", clean)
	}
	cases := []struct {
		name    string
		opts    []Option
		blocked int
	}{
		{"plain", nil, coldBlockK},
		{"skipipf", []Option{WithSkipIPF(true)}, coldBlockK},
		{"weighted", []Option{WithWeighted(true)}, 0},
	}
	for _, c := range cases {
		est := base.With(c.opts...)
		for _, prior := range []Prior{GravityPrior{}, &StableFPrior{F: 0.3}} {
			label := fmt.Sprintf("%s/%s", c.name, prior.Name())
			out := est.EstimateBins(prior, obs)
			if len(out) != len(obs) {
				t.Fatalf("%s: %d outcomes for %d bins", label, len(out), len(obs))
			}
			blocked := 0
			for i, o := range out {
				requireOutcomeIsEstimateBin(t, label, est, prior, obs[i], o)
				if o.Blocked {
					blocked++
				}
			}
			if blocked != c.blocked {
				t.Errorf("%s: %d bins took LSQRMulti, want %d", label, blocked, c.blocked)
			}
		}
	}
}

// TestEstimateBinsSmallGroupsSolvePerBin: fewer than minBlockLanes clean
// bins never take LSQRMulti, and an empty group returns no outcomes.
func TestEstimateBinsSmallGroupsSolvePerBin(t *testing.T) {
	obs, est, _ := groupObservations(t)
	small := []Observation{obs[0], obs[1], obs[2], obs[3]} // three clean, one masked
	for i, o := range est.EstimateBins(GravityPrior{}, small) {
		requireOutcomeIsEstimateBin(t, "small", est, GravityPrior{}, small[i], o)
		if o.Blocked {
			t.Errorf("bin %d took LSQRMulti in a group of %d clean bins", small[i].T, minBlockLanes-1)
		}
	}
	if out := est.EstimateBins(GravityPrior{}, nil); len(out) != 0 {
		t.Fatalf("%d outcomes for no bins", len(out))
	}
}

// TestWarmShortTailPinned: a warm chunk whose clean bins end in a block
// narrower than minBlockLanes solves that block lane by lane through
// LSQR, warm-started from the previous block. The 27-bin series puts an
// 8+3 split in its second chunk; its digest and stats were recorded when
// every warm block, however narrow, ran through LSQRMulti.
func TestWarmShortTailPinned(t *testing.T) {
	const want = "43072381fcb7fac86a31602d5aa3403755683c651c11ed9a8dafff262f1af5d7"
	rm, truth := warmFixture(t, 27)
	for _, workers := range []int{1, 4} {
		est, err := NewEstimator(rm, WithWorkers(workers), WithWarmStart(true))
		if err != nil {
			t.Fatal(err)
		}
		r, err := est.EstimateSeries(truth, GravityPrior{})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var buf [8]byte
		for i := 0; i < r.Estimates.Len(); i++ {
			for _, v := range r.Estimates.At(i).Vec() {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("workers=%d: digest %s, want %s", workers, got, want)
		}
		if s := r.Stats; s.LSQRIterationsTotal != 1307 || s.WarmStartedBins != 11 {
			t.Errorf("workers=%d: %d LSQR iterations, %d warm-started bins; want 1307, 11",
				workers, s.LSQRIterationsTotal, s.WarmStartedBins)
		}
	}
}
