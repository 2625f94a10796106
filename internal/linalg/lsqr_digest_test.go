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

// lsqrDigests pins the SHA-256 of LSQR's and LSQRMulti's solutions and
// reports (every float by its bits) over a seeded corpus: converged
// systems, stalls at MaxIter 1 and 3, b = 0, Aᵀ·b = 0, a diagonal
// system whose Krylov space is exhausted early, and LSQR over the
// RowMasked and ColScaled operators. The digests were recorded before
// the two drivers came to share one recurrence; any moved bit in a
// rotation, norm estimate, stopping test or blocked kernel fails here.
var lsqrDigests = map[string]string{
	"lsqr":                      "fbc4772b96e5b01c709e1cc80d3f9dc153e0f45042f53b8ff20697242b54ea0f",
	"lsqr-col-scaled":           "91aee01ccff45ac10268ec595edd31d9a8660a499e01a26a9fedb6657715d89f",
	"lsqr-col-scaled/maxiter=1": "382fc0e81710f898ca3b46be6f9e313dfc1f6e086796589683d38ab2e9e7b727",
	"lsqr-col-scaled/maxiter=3": "6993bdb6371a089320166304e45284c8528b8eddd3f1af20e69f1d723da4aa32",
	"lsqr-multi":                "b00e19fea7c34eb34e13b40d5236e0f65efbb001ac0deadfffe93c1aa0953792",
	"lsqr-multi/maxiter=1":      "642998524e197eb4f061832f3a7bf8f87c54a44b326d5df3a5d751b8fe9e1cb2",
	"lsqr-multi/maxiter=3":      "224382f5d234d4237cc5cde02918692a35db28d8305cc38a9c900de839dafe2f",
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

// TestLSQRDigestsPinned hashes LSQR and LSQRMulti over digestCorpus and
// compares each case with its recorded digest.
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
	// multi solves blocks of k right-hand sides against each random
	// system's operator. Lane 1 of every block of three or more is b = 0
	// and lane 2 is Aᵀ·b = 0 when the operator has an empty row; the
	// rest are random, scaled by lane so they stop at staggered
	// iterations. The diagonal system runs one block whose lanes touch
	// one to k coordinates.
	multi := func(maxIter int) func(h hash.Hash) {
		return func(h hash.Hash) {
			r := rand.New(rand.NewSource(8))
			for _, k := range []int{1, 3, 4, 5, 8, 9, 13, 17} {
				for i, sys := range corpus[:digestRandom] {
					m := sys.a.Rows()
					bs := randomVecs(r, k, m)
					if k >= 3 {
						clear(bs[1])
						if empty := emptyRow(sys.a); empty >= 0 {
							clear(bs[2])
							bs[2][empty] = 1.25
						}
					}
					runMulti(t, h, sys.a, bs, maxIter, i)
				}
			}
			diag := corpus[len(corpus)-1].a
			bs := make([][]float64, 9)
			for c := range bs {
				bs[c] = make([]float64, diag.Rows())
				for j := 0; j <= c%diag.Rows(); j++ {
					bs[c][j] = float64(c+1) * (1 + 0.5*float64(j))
				}
			}
			runMulti(t, h, diag, bs, maxIter, -1)
		}
	}
	for _, it := range []int{0, 1, 3} {
		suffix := ""
		if it > 0 {
			suffix = fmt.Sprintf("/maxiter=%d", it)
		}
		record("lsqr"+suffix, single(it, nil))
		record("lsqr-row-masked"+suffix, single(it, masked))
		record("lsqr-col-scaled"+suffix, single(it, scaled))
		record("lsqr-multi"+suffix, multi(it))
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

// runMulti solves one LSQRMulti block and hashes every lane.
func runMulti(t *testing.T, h hash.Hash, a *Sparse, bs [][]float64, maxIter, sys int) {
	t.Helper()
	dst := make([][]float64, len(bs))
	for c := range dst {
		dst[c] = make([]float64, a.Cols())
	}
	reps, err := LSQRMulti(a, bs, dst, LSQROptions{MaxIter: maxIter})
	if err != nil {
		t.Fatalf("system %d, k=%d: %v", sys, len(bs), err)
	}
	for c := range bs {
		hashSolve(h, dst[c], reps[c])
	}
}

// emptyRow returns the index of a row of a with no entries, or -1.
func emptyRow(a *Sparse) int {
	for i := 0; i < a.rows; i++ {
		if a.rowPtr[i] == a.rowPtr[i+1] {
			return i
		}
	}
	return -1
}
