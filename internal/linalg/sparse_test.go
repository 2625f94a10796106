package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// randomSparseMatrix returns an m x n dense matrix with roughly the
// given fill fraction of nonzero entries (routing-matrix-like: mostly
// zeros, a few positive entries per column).
func randomSparseMatrix(r *rand.Rand, m, n int, fill float64) *Matrix {
	a := NewMatrix(m, n)
	for i := 0; i < m; i++ {
		row := a.Row(i)
		for j := range row {
			if r.Float64() < fill {
				row[j] = r.Float64() + 0.1
			}
		}
	}
	return a
}

func TestSparseFromDenseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		m, n := 1+r.Intn(20), 1+r.Intn(20)
		a := randomSparseMatrix(r, m, n, 0.2)
		s := sparseFromDense(a)
		if s.Rows() != m || s.Cols() != n {
			t.Fatalf("trial %d: shape %dx%d, want %dx%d", trial, s.Rows(), s.Cols(), m, n)
		}
		if !equal(s.Dense(), a, 0) {
			t.Fatalf("trial %d: Dense(sparseFromDense(a)) != a", trial)
		}
		nnz := 0
		for _, v := range a.data {
			if v != 0 {
				nnz++
			}
		}
		if s.NNZ() != nnz {
			t.Fatalf("trial %d: NNZ = %d, want %d", trial, s.NNZ(), nnz)
		}
	}
}

// TestNewSparseMatchesFromDense: building from shuffled coordinate
// entries must produce the same matrix — including identical stored
// order, asserted via bitwise-equal MulVec — as the dense round-trip.
func TestNewSparseMatchesFromDense(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		m, n := 1+r.Intn(20), 1+r.Intn(20)
		a := randomSparseMatrix(r, m, n, 0.2)
		var entries []Coord
		for i := 0; i < m; i++ {
			for j, v := range a.Row(i) {
				if v != 0 {
					entries = append(entries, Coord{Row: i, Col: j, Val: v})
				}
			}
		}
		r.Shuffle(len(entries), func(a, b int) { entries[a], entries[b] = entries[b], entries[a] })
		got, err := NewSparse(m, n, entries)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := sparseFromDense(a)
		if got.NNZ() != want.NNZ() {
			t.Fatalf("trial %d: NNZ %d, want %d", trial, got.NNZ(), want.NNZ())
		}
		if !equal(got.Dense(), a, 0) {
			t.Fatalf("trial %d: NewSparse disagrees with the dense source", trial)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		gv, err := got.MulVec(x)
		if err != nil {
			t.Fatal(err)
		}
		wv, err := want.MulVec(x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range gv {
			if gv[i] != wv[i] {
				t.Fatalf("trial %d: MulVec[%d] = %g, want %g bitwise (stored order must match)", trial, i, gv[i], wv[i])
			}
		}
	}
}

func TestNewSparseDropsZeros(t *testing.T) {
	s, err := NewSparse(2, 2, []Coord{{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if s.NNZ() != 1 {
		t.Errorf("NNZ = %d, want 1 (zero entry must be dropped)", s.NNZ())
	}
}

func TestNewSparseRejectsBadEntries(t *testing.T) {
	if _, err := NewSparse(2, 2, []Coord{{Row: 2, Col: 0, Val: 1}}); !errors.Is(err, ErrShape) {
		t.Errorf("out-of-range row: err = %v, want ErrShape", err)
	}
	if _, err := NewSparse(2, 2, []Coord{{Row: 0, Col: -1, Val: 1}}); !errors.Is(err, ErrShape) {
		t.Errorf("negative col: err = %v, want ErrShape", err)
	}
	dups := []Coord{{Row: 1, Col: 1, Val: 1}, {Row: 1, Col: 1, Val: 2}}
	if _, err := NewSparse(2, 2, dups); !errors.Is(err, ErrShape) {
		t.Errorf("duplicate entry: err = %v, want ErrShape", err)
	}
	if _, err := NewSparse(-1, 2, nil); !errors.Is(err, ErrShape) {
		t.Errorf("negative shape: err = %v, want ErrShape", err)
	}
}

func TestSparseMulVecMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		m, n := 1+r.Intn(25), 1+r.Intn(25)
		a := randomSparseMatrix(r, m, n, 0.15)
		s := sparseFromDense(a)
		x := make([]float64, n)
		y := make([]float64, m)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		for i := range y {
			y[i] = r.NormFloat64()
		}
		want := mulVec(a, x)
		got, err := s.MulVec(x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(want[i]-got[i]) > 1e-12*(1+math.Abs(want[i])) {
				t.Fatalf("trial %d: MulVec[%d] = %g, want %g", trial, i, got[i], want[i])
			}
		}
		wantT := tmulVec(a, y)
		gotT := tmulVec(s, y)
		for i := range wantT {
			if math.Abs(wantT[i]-gotT[i]) > 1e-12*(1+math.Abs(wantT[i])) {
				t.Fatalf("trial %d: TMulVecTo[%d] = %g, want %g", trial, i, gotT[i], wantT[i])
			}
		}
	}
}

func TestSparseShapeErrors(t *testing.T) {
	s := sparseFromDense(NewMatrix(3, 2))
	if _, err := s.MulVec(make([]float64, 3)); !errors.Is(err, ErrShape) {
		t.Errorf("MulVec wrong length: err = %v, want ErrShape", err)
	}
}

func TestColScaledMatchesExplicitScaling(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		m, n := 1+r.Intn(15), 1+r.Intn(15)
		a := randomSparseMatrix(r, m, n, 0.3)
		scale := make([]float64, n)
		for j := range scale {
			scale[j] = r.Float64() + 0.5
		}
		// Explicitly scaled dense copy for reference.
		ref := a.Clone()
		for i := 0; i < m; i++ {
			row := ref.Row(i)
			for j := range row {
				row[j] *= scale[j]
			}
		}
		op := NewColScaled(sparseFromDense(a), scale)
		x := make([]float64, n)
		y := make([]float64, m)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		for i := range y {
			y[i] = r.NormFloat64()
		}
		got := make([]float64, m)
		op.MulVecTo(got, x)
		want := mulVec(ref, x)
		for i := range want {
			if math.Abs(want[i]-got[i]) > 1e-12*(1+math.Abs(want[i])) {
				t.Fatalf("trial %d: MulVecTo[%d] = %g, want %g", trial, i, got[i], want[i])
			}
		}
		gotT := make([]float64, n)
		op.TMulVecTo(gotT, y)
		wantT := tmulVec(ref, y)
		for i := range wantT {
			if math.Abs(wantT[i]-gotT[i]) > 1e-12*(1+math.Abs(wantT[i])) {
				t.Fatalf("trial %d: TMulVecTo[%d] = %g, want %g", trial, i, gotT[i], wantT[i])
			}
		}
	}
}

func TestColIntoMatchesCol(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	a := randomSparseMatrix(r, 9, 6, 0.5)
	dst := make([]float64, 9)
	for j := 0; j < 6; j++ {
		a.ColInto(j, dst)
		for i := range dst {
			if want := a.At(i, j); dst[i] != want {
				t.Fatalf("ColInto(%d)[%d] = %g, want %g", j, i, dst[i], want)
			}
		}
	}
}
