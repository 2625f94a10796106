package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// interleave packs k contiguous vectors (each length rows) into the
// interleaved k-wide layout the blocked kernels consume: out[j*k+c] is
// entry j of vector c.
func interleave(vecs [][]float64, rows, k int) []float64 {
	out := make([]float64, rows*k)
	for c, v := range vecs {
		for j := 0; j < rows; j++ {
			out[j*k+c] = v[j]
		}
	}
	return out
}

// randomVecs returns k random vectors of the given length, scaled by
// lane so the blocked solver's systems converge at staggered iteration
// counts (lane c is ~4^c larger than lane 0).
func randomVecs(r *rand.Rand, k, length int) [][]float64 {
	out := make([][]float64, k)
	scale := 1.0
	for c := range out {
		v := make([]float64, length)
		for j := range v {
			v[j] = r.NormFloat64() * scale
		}
		out[c] = v
		scale *= 4
	}
	return out
}

// TestMulMatToMatchesMulVecTo: column c of LSQRMulti's fused blocked
// product (mulGatherUUpdate with α = 0 over a zero u) must be
// bit-identical to MulVecTo on column c alone, for every lane-tile shape
// (k below, at, and straddling the 8/4/1 tile widths), including
// matrices with explicitly empty rows.
func TestMulMatToMatchesMulVecTo(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 17} {
		for trial := 0; trial < 5; trial++ {
			m, n := 2+r.Intn(25), 2+r.Intn(25)
			a := randomSparseMatrix(r, m, n, 0.3)
			// Force an empty row: the gather must write +0 there in
			// every lane.
			for j := 0; j < n; j++ {
				a.Set(r.Intn(m), j, 0)
			}
			s := sparseFromDense(a)
			xs := randomVecs(r, k, n)
			dst := make([]float64, m*k)
			mulGatherUUpdate(s, interleave(xs, n, k), dst, make([]float64, k), make([]float64, k), k)
			want := make([]float64, m)
			for c := 0; c < k; c++ {
				s.MulVecTo(want, xs[c])
				for i := 0; i < m; i++ {
					if math.Float64bits(dst[i*k+c]) != math.Float64bits(want[i]) {
						t.Fatalf("k=%d trial %d: lane %d row %d: %g vs MulVecTo %g",
							k, trial, c, i, dst[i*k+c], want[i])
					}
				}
			}
		}
	}
}

// TestTMulMatToMatchesTMulVecTo: LSQRMulti's fused transposed gather
// (tmulGatherVUpdate over the cached transpose, from v = 0 with β = 0,
// as LSQRMulti starts) against TMulVecTo, lane by lane, bit for bit —
// including input vectors with exact zeros (TMulVecTo skips them; the
// gather must still match).
func TestTMulMatToMatchesTMulVecTo(t *testing.T) {
	r := rand.New(rand.NewSource(92))
	for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 17} {
		for trial := 0; trial < 5; trial++ {
			m, n := 2+r.Intn(25), 2+r.Intn(25)
			a := randomSparseMatrix(r, m, n, 0.3)
			s := sparseFromDense(a)
			xs := randomVecs(r, k, m)
			for c := range xs {
				// Sprinkle exact zeros into the input: the scatter form
				// skips them outright.
				for j := range xs[c] {
					if r.Intn(4) == 0 {
						xs[c][j] = 0
					}
				}
			}
			upd := make([]bool, k)
			for c := range upd {
				upd[c] = true
			}
			dst := make([]float64, n*k)
			tmulGatherVUpdate(s.transpose(), interleave(xs, m, k), dst, make([]float64, k), upd, make([]float64, k), k)
			want := make([]float64, n)
			for c := 0; c < k; c++ {
				s.TMulVecTo(want, xs[c])
				for j := 0; j < n; j++ {
					if math.Float64bits(dst[j*k+c]) != math.Float64bits(want[j]) {
						t.Fatalf("k=%d trial %d: lane %d col %d: %g vs TMulVecTo %g",
							k, trial, c, j, dst[j*k+c], want[j])
					}
				}
			}
		}
	}
}

// lsqrMultiVsStandalone solves the k systems both blocked and one at a
// time with identical options and demands bit-identical solutions and
// reports. It returns the reports.
func lsqrMultiVsStandalone(t *testing.T, s *Sparse, bs [][]float64, opts LSQROptions) []LSQRReport {
	t.Helper()
	k := len(bs)
	dst := make([][]float64, k)
	for c := range dst {
		dst[c] = make([]float64, s.Cols())
	}
	reps, err := LSQRMulti(s, bs, dst, opts)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < k; c++ {
		want, wantRep, err := LSQR(s, bs[c], LSQROptions{MaxIter: opts.MaxIter})
		if err != nil {
			t.Fatal(err)
		}
		if reps[c] != wantRep {
			t.Fatalf("lane %d report %+v, standalone %+v", c, reps[c], wantRep)
		}
		for j := range want {
			if math.Float64bits(dst[c][j]) != math.Float64bits(want[j]) {
				t.Fatalf("lane %d x[%d] = %g, standalone %g", c, j, dst[c][j], want[j])
			}
		}
	}
	return reps
}

// mixedSystem returns a random sparse m×n operator (m, n ≥ 4) whose
// top-left 2×2 block is a decoupled diagonal and whose last row is
// empty, with k right-hand sides that end every way a lane can: lane 0
// is random, lane 1 is b = 0, lane 2 touches one diagonal row and lane 3
// both (the Krylov space is exhausted after one and two iterations),
// lane 4 lives on the empty row (Aᵀ·b = 0), and the rest are random,
// scaled by lane.
func mixedSystem(r *rand.Rand, m, n, k int) (*Sparse, [][]float64) {
	a := randomSparseMatrix(r, m, n, 0.3)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if (i < 2 || j < 2) && i != j || i == m-1 {
				a.Set(i, j, 0)
			}
		}
	}
	a.Set(0, 0, 2)
	a.Set(1, 1, 3)
	bs := randomVecs(r, k, m)
	for c := 1; c < min(k, 5); c++ {
		clear(bs[c])
	}
	if k > 2 {
		bs[2][0] = 1.5
	}
	if k > 3 {
		bs[3][0], bs[3][1] = 0.5, -2
	}
	if k > 4 {
		bs[4][m-1] = 1
	}
	return sparseFromDense(a), bs
}

// TestLSQRMultiMatchesLSQRBitwise is the blocked driver's core contract:
// every lane of a cold blocked solve is bit-identical — solution and
// report — to a standalone LSQR on that system, across block widths
// spanning the 8/4/1 lane tiles and iteration budgets from the default
// down to one, with lanes that converge at staggered iterations, stall
// at MaxIter, start at b = 0 or Aᵀ·b = 0, or exhaust their Krylov space
// early, all in one block.
func TestLSQRMultiMatchesLSQRBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(93))
	stalled, converged := 0, 0
	for _, k := range []int{1, 2, 3, 5, 8, 9, 13, 17} {
		for _, maxIter := range []int{0, 1, 2, 3, 5, 11} {
			for trial := 0; trial < 3; trial++ {
				s, bs := mixedSystem(r, 5+r.Intn(24), 5+r.Intn(24), k)
				for _, rep := range lsqrMultiVsStandalone(t, s, bs, LSQROptions{MaxIter: maxIter}) {
					if !rep.Converged {
						stalled++
					} else if rep.Iterations > 0 {
						converged++
					}
				}
			}
		}
	}
	if stalled == 0 || converged == 0 {
		t.Fatalf("%d lanes stalled and %d converged after iterating; the corpus must have both", stalled, converged)
	}
}

// TestLSQRMultiWorkReuseBitwise: one LSQRWork carried across blocked
// solves of different shapes and block widths, with single-system LSQR
// solves in between, must never change a result — buffers are fully
// overwritten before being read.
func TestLSQRMultiWorkReuseBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(96))
	var wk LSQRWork
	for trial := 0; trial < 8; trial++ {
		m, n := 4+r.Intn(24), 4+r.Intn(24)
		s := sparseFromDense(randomSparseMatrix(r, m, n, 0.3))
		k := 1 + r.Intn(9)
		bs := randomVecs(r, k, m)
		fresh := make([][]float64, k)
		reused := make([][]float64, k)
		for c := 0; c < k; c++ {
			fresh[c] = make([]float64, n)
			reused[c] = make([]float64, n)
		}
		freshReps, err := LSQRMulti(s, bs, fresh, LSQROptions{})
		if err != nil {
			t.Fatal(err)
		}
		reusedReps, err := LSQRMulti(s, bs, reused, LSQROptions{Work: &wk})
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < k; c++ {
			if freshReps[c] != reusedReps[c] {
				t.Fatalf("trial %d lane %d: reports %+v vs %+v", trial, c, freshReps[c], reusedReps[c])
			}
			for j := range fresh[c] {
				if math.Float64bits(fresh[c][j]) != math.Float64bits(reused[c][j]) {
					t.Fatalf("trial %d lane %d: work reuse changed x[%d]", trial, c, j)
				}
			}
		}
		want, wantRep, err := LSQR(s, bs[0], LSQROptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, gotRep, err := LSQR(s, bs[0], LSQROptions{Work: &wk})
		if err != nil {
			t.Fatal(err)
		}
		if gotRep != wantRep {
			t.Fatalf("trial %d: LSQR report %+v after a blocked solve, fresh %+v", trial, gotRep, wantRep)
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("trial %d: a blocked solve's leftovers changed LSQR's x[%d]", trial, j)
			}
		}
	}
}

// TestLSQRMultiShapeErrors: every shape mismatch is an ErrShape, and an
// empty block is a no-op.
func TestLSQRMultiShapeErrors(t *testing.T) {
	s := sparseFromDense(randomSparseMatrix(rand.New(rand.NewSource(97)), 6, 4, 0.5))
	good := [][]float64{make([]float64, 6), make([]float64, 6)}
	dst := [][]float64{make([]float64, 4), make([]float64, 4)}
	cases := []struct {
		name string
		bs   [][]float64
		dst  [][]float64
		opts LSQROptions
	}{
		{"dst count", good, dst[:1], LSQROptions{}},
		{"b length", [][]float64{make([]float64, 5), good[1]}, dst, LSQROptions{}},
		{"dst length", good, [][]float64{make([]float64, 3), dst[1]}, LSQROptions{}},
	}
	for _, tc := range cases {
		if _, err := LSQRMulti(s, tc.bs, tc.dst, tc.opts); !errors.Is(err, ErrShape) {
			t.Errorf("%s: err = %v, want ErrShape", tc.name, err)
		}
	}
	reps, err := LSQRMulti(s, nil, nil, LSQROptions{})
	if err != nil || reps != nil {
		t.Errorf("empty block: reps %v, err %v", reps, err)
	}
}
