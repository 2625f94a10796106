package estimation

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"ictm/internal/faults"
)

// seriesDigests pins the SHA-256 of every estimate's Float64bits, in bin
// order, for each projection configuration of EstimateSeries on a small
// fixture. The digests were recorded before the solve layer was collapsed
// onto one projection entry point; any change to the served bits of any
// configuration — weighted or not, clean or masked, cold or
// warm-started — fails here.
var seriesDigests = map[string]string{
	"weighted=false/lossy=false/warm=false": "aea474bf72a8ab9e056d9f140afd2ab633642f3a78cf2e6f14d03a4406f745ca",
	"weighted=false/lossy=false/warm=true":  "933a8997d2c8619ab99b79dc153c89868e9ef788fc730c1a29ac77be9592f225",
	"weighted=false/lossy=true/warm=false":  "2b3b4eee6fb761cbb4c9bb615d676a07c3dc6d64337dce8125bc203e9ebad305",
	"weighted=false/lossy=true/warm=true":   "2b3b4eee6fb761cbb4c9bb615d676a07c3dc6d64337dce8125bc203e9ebad305",
	"weighted=true/lossy=false/warm=false":  "8bd313db1461b91a51f66955cd773a615155999876a970b17a16bf34aa5142a8",
	"weighted=true/lossy=false/warm=true":   "8bd313db1461b91a51f66955cd773a615155999876a970b17a16bf34aa5142a8",
	"weighted=true/lossy=true/warm=false":   "1e4ff54520440bf3ffbd20ac8dc014382ef9b00615b8546fcb99c5f0c22e8cff",
	"weighted=true/lossy=true/warm=true":    "1e4ff54520440bf3ffbd20ac8dc014382ef9b00615b8546fcb99c5f0c22e8cff",
}

// digestOptions maps one (weighted, lossy, warm) configuration to the
// estimator options that select it.
func digestOptions(weighted, lossy, warm bool) []Option {
	opts := []Option{WithWorkers(1), WithWeighted(weighted), WithWarmStart(warm)}
	if lossy {
		opts = append(opts, WithFaultInjection(faults.Lossy(), 11))
	}
	return opts
}

func TestSeriesDigestsPinned(t *testing.T) {
	rm, truth := warmFixture(t, 20)
	for _, weighted := range []bool{false, true} {
		for _, lossy := range []bool{false, true} {
			for _, warm := range []bool{false, true} {
				name := fmt.Sprintf("weighted=%v/lossy=%v/warm=%v", weighted, lossy, warm)
				est, err := NewEstimator(rm, digestOptions(weighted, lossy, warm)...)
				if err != nil {
					t.Fatal(err)
				}
				r, err := est.EstimateSeries(truth, GravityPrior{})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				h := sha256.New()
				var buf [8]byte
				for i := 0; i < r.Estimates.Len(); i++ {
					for _, v := range r.Estimates.At(i).Vec() {
						binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
						h.Write(buf[:])
					}
				}
				got := hex.EncodeToString(h.Sum(nil))
				if want, ok := seriesDigests[name]; !ok || got != want {
					t.Errorf("%s: digest %s, want %s", name, got, want)
				}
			}
		}
	}
}
