package linalg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"
)

// lsqrDigests pins the SHA-256 of LSQR's solutions and reports (every
// float by its bits) over a seeded corpus: converged systems, stalls at
// MaxIter 1 and 3, b = 0, Aᵀ·b = 0, a diagonal system whose Krylov
// space is exhausted early, and LSQR over the RowMasked and ColScaled
// operators. Any moved bit in a rotation, norm estimate, stopping test
// or mat-vec kernel fails here.
var lsqrDigests = map[string]string{
	"lsqr":                      "fbc4772b96e5b01c709e1cc80d3f9dc153e0f45042f53b8ff20697242b54ea0f",
	"lsqr-col-scaled":           "91aee01ccff45ac10268ec595edd31d9a8660a499e01a26a9fedb6657715d89f",
	"lsqr-col-scaled/maxiter=1": "382fc0e81710f898ca3b46be6f9e313dfc1f6e086796589683d38ab2e9e7b727",
	"lsqr-col-scaled/maxiter=3": "6993bdb6371a089320166304e45284c8528b8eddd3f1af20e69f1d723da4aa32",
	"lsqr-row-masked":           "68bd5581c8ee863dcedabffff5d9d64f5e2d8a8c51db18382b194ca3e11c4668",
	"lsqr-row-masked/maxiter=1": "e6fed602f39a136c1bd8a94e33467478eb05e36d73e3c612f45457982f3a47de",
	"lsqr-row-masked/maxiter=3": "94791cf199d2cec452e4b3d97071b2c23d01cbbcf80d411cbc10bd3260c65364",
	"lsqr/maxiter=1":            "e875354e0a689ec364aab389e97946f4b499dc43973fb09a8b07595a4a6f177c",
	"lsqr/maxiter=3":            "f77faf6e13c1c4cb22cd53d90a4995783b55dcce1307a4d9bf6f048236b657a7",
}

// hashSolve appends one solve's solution and report to h.
func hashSolve(h hash.Hash, x []float64, rep LSQRReport) {
	var buf []byte
	for _, v := range x {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rep.Iterations))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rep.ResidualNorm))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rep.ATResidualNorm))
	if rep.Converged {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	h.Write(buf)
}

// digestRandom is the number of random systems leading the digest
// corpus; the special systems follow them.
const digestRandom = 12

// digestSystem is one system of the digest corpus.
type digestSystem struct {
	a *Sparse
	b []float64
}

// digestCorpus returns the seeded systems the digests cover, in a fixed
// order: random overdetermined, underdetermined and square systems
// (every fourth rank-deficient through a duplicated column, every third
// with an empty row), a b = 0 system, an Aᵀ·b = 0 system (b lives on an
// empty row of A), and a diagonal system whose right-hand side touches
// two coordinates, so the Krylov space is exhausted after two
// iterations.
func digestCorpus() []digestSystem {
	r := rand.New(rand.NewSource(2406))
	var out []digestSystem
	for trial := 0; trial < digestRandom; trial++ {
		m, n := 3+r.Intn(28), 3+r.Intn(28)
		d := randomSparseMatrix(r, m, n, 0.3)
		if trial%4 == 0 {
			src, dup := r.Intn(n), r.Intn(n)
			for i := 0; i < m; i++ {
				d.Set(i, dup, d.At(i, src))
			}
		}
		if trial%3 == 0 {
			for j := 0; j < n; j++ {
				d.Set(m/2, j, 0)
			}
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		out = append(out, digestSystem{sparseFromDense(d), b})
	}
	zero := randomSparseMatrix(r, 9, 7, 0.4)
	out = append(out, digestSystem{sparseFromDense(zero), make([]float64, 9)})

	empty := randomSparseMatrix(r, 8, 6, 0.4)
	for j := 0; j < 6; j++ {
		empty.Set(3, j, 0)
	}
	atb := make([]float64, 8)
	atb[3] = 2.5
	out = append(out, digestSystem{sparseFromDense(empty), atb})

	diag := NewMatrix(7, 7)
	for i := 0; i < 7; i++ {
		diag.Set(i, i, float64(i+1))
	}
	early := make([]float64, 7)
	early[1], early[4] = 1.5, -0.75
	out = append(out, digestSystem{sparseFromDense(diag), early})
	return out
}

// TestLSQRDigestsPinned hashes LSQR over digestCorpus and compares each
// case with its recorded digest.
func TestLSQRDigestsPinned(t *testing.T) {
	corpus := digestCorpus()
	got := map[string]string{}
	record := func(name string, run func(h hash.Hash)) {
		h := sha256.New()
		run(h)
		got[name] = hex.EncodeToString(h.Sum(nil))
	}
	single := func(maxIter int, wrap func(s *Sparse, r *rand.Rand) Op) func(h hash.Hash) {
		return func(h hash.Hash) {
			r := rand.New(rand.NewSource(7))
			for i, sys := range corpus {
				var op Op = sys.a
				if wrap != nil {
					op = wrap(sys.a, r)
				}
				x, rep, err := LSQR(op, sys.b, LSQROptions{MaxIter: maxIter})
				if err != nil {
					t.Fatalf("system %d: %v", i, err)
				}
				hashSolve(h, x, rep)
			}
		}
	}
	masked := func(s *Sparse, r *rand.Rand) Op {
		keep := make([]bool, s.Rows())
		for i := range keep {
			keep[i] = r.Intn(5) != 0
		}
		return NewRowMasked(s, keep)
	}
	scaled := func(s *Sparse, r *rand.Rand) Op {
		scale := make([]float64, s.Cols())
		for j := range scale {
			scale[j] = 0.25 + r.Float64()
		}
		return NewColScaled(s, scale)
	}
	for _, it := range []int{0, 1, 3} {
		suffix := ""
		if it > 0 {
			suffix = fmt.Sprintf("/maxiter=%d", it)
		}
		record("lsqr"+suffix, single(it, nil))
		record("lsqr-row-masked"+suffix, single(it, masked))
		record("lsqr-col-scaled"+suffix, single(it, scaled))
	}
	// The corpus must reach the exits it claims to cover.
	n := len(corpus)
	if _, rep, _ := LSQR(corpus[n-3].a, corpus[n-3].b, LSQROptions{}); !rep.Converged || rep.Iterations != 0 {
		t.Errorf("b = 0 system: %+v, want converged at 0 iterations", rep)
	}
	if _, rep, _ := LSQR(corpus[n-2].a, corpus[n-2].b, LSQROptions{}); !rep.Converged || rep.Iterations != 0 || rep.ResidualNorm != 2.5 {
		t.Errorf("Aᵀ·b = 0 system: %+v, want converged at 0 iterations with ‖r‖ = 2.5", rep)
	}
	if _, rep, _ := LSQR(corpus[n-1].a, corpus[n-1].b, LSQROptions{}); !rep.Converged || rep.Iterations > 2 {
		t.Errorf("diagonal system: %+v, want converged within 2 iterations", rep)
	}
	for name, digest := range got {
		if want, ok := lsqrDigests[name]; !ok || digest != want {
			t.Errorf("%s: digest %s, want %s", name, digest, want)
		}
	}
	if len(got) != len(lsqrDigests) {
		t.Errorf("%d digests computed, %d pinned", len(got), len(lsqrDigests))
	}
}
