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
// configuration — weighted or not, clean or masked, iterative or dense
// reference, cold or warm-started — fails here.
var seriesDigests = map[string]string{
	"weighted=false/lossy=false/dense=false/warm=false": "aea474bf72a8ab9e056d9f140afd2ab633642f3a78cf2e6f14d03a4406f745ca",
	"weighted=false/lossy=false/dense=false/warm=true":  "933a8997d2c8619ab99b79dc153c89868e9ef788fc730c1a29ac77be9592f225",
	"weighted=false/lossy=false/dense=true/warm=false":  "48ea377dbb9f160d9afbf895eb7e8fabfcc62730298dfac5974623a974d371bf",
	"weighted=false/lossy=false/dense=true/warm=true":   "48ea377dbb9f160d9afbf895eb7e8fabfcc62730298dfac5974623a974d371bf",
	"weighted=false/lossy=true/dense=false/warm=false":  "2b3b4eee6fb761cbb4c9bb615d676a07c3dc6d64337dce8125bc203e9ebad305",
	"weighted=false/lossy=true/dense=false/warm=true":   "2b3b4eee6fb761cbb4c9bb615d676a07c3dc6d64337dce8125bc203e9ebad305",
	"weighted=false/lossy=true/dense=true/warm=false":   "2b3b4eee6fb761cbb4c9bb615d676a07c3dc6d64337dce8125bc203e9ebad305",
	"weighted=false/lossy=true/dense=true/warm=true":    "2b3b4eee6fb761cbb4c9bb615d676a07c3dc6d64337dce8125bc203e9ebad305",
	"weighted=true/lossy=false/dense=false/warm=false":  "8bd313db1461b91a51f66955cd773a615155999876a970b17a16bf34aa5142a8",
	"weighted=true/lossy=false/dense=false/warm=true":   "8bd313db1461b91a51f66955cd773a615155999876a970b17a16bf34aa5142a8",
	"weighted=true/lossy=false/dense=true/warm=false":   "ddd0164309af93b89fcf2ba045cf9f7ae759405aa035864b908a8d44dd940207",
	"weighted=true/lossy=false/dense=true/warm=true":    "ddd0164309af93b89fcf2ba045cf9f7ae759405aa035864b908a8d44dd940207",
	"weighted=true/lossy=true/dense=false/warm=false":   "1e4ff54520440bf3ffbd20ac8dc014382ef9b00615b8546fcb99c5f0c22e8cff",
	"weighted=true/lossy=true/dense=false/warm=true":    "1e4ff54520440bf3ffbd20ac8dc014382ef9b00615b8546fcb99c5f0c22e8cff",
	"weighted=true/lossy=true/dense=true/warm=false":    "1e4ff54520440bf3ffbd20ac8dc014382ef9b00615b8546fcb99c5f0c22e8cff",
	"weighted=true/lossy=true/dense=true/warm=true":     "1e4ff54520440bf3ffbd20ac8dc014382ef9b00615b8546fcb99c5f0c22e8cff",
}

// digestOptions maps one (weighted, dense, lossy, warm) configuration to
// the estimator options that select it.
func digestOptions(weighted, dense, lossy, warm bool) []Option {
	opts := []Option{WithWorkers(1), WithWeighted(weighted), WithDense(dense), WithWarmStart(warm)}
	if lossy {
		opts = append(opts, WithFaultInjection(faults.Lossy(), 11))
	}
	return opts
}

func TestSeriesDigestsPinned(t *testing.T) {
	rm, truth := warmFixture(t, 20)
	for _, weighted := range []bool{false, true} {
		for _, lossy := range []bool{false, true} {
			for _, dense := range []bool{false, true} {
				for _, warm := range []bool{false, true} {
					name := fmt.Sprintf("weighted=%v/lossy=%v/dense=%v/warm=%v", weighted, lossy, dense, warm)
					est, err := NewEstimator(rm, digestOptions(weighted, dense, lossy, warm)...)
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
}
