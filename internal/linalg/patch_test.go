package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func mustSparse(t *testing.T, rows, cols int, entries []Coord) *Sparse {
	t.Helper()
	s, err := NewSparse(rows, cols, entries)
	if err != nil {
		t.Fatalf("NewSparse: %v", err)
	}
	return s
}

func TestRowEntries(t *testing.T) {
	s := mustSparse(t, 3, 4, []Coord{
		{Row: 0, Col: 1, Val: 2}, {Row: 0, Col: 3, Val: 4},
		{Row: 2, Col: 0, Val: -1},
	})
	cols, vals := s.RowEntries(0)
	if len(cols) != 2 || cols[0] != 1 || cols[1] != 3 || vals[0] != 2 || vals[1] != 4 {
		t.Fatalf("row 0 = %v %v", cols, vals)
	}
	if cols, vals := s.RowEntries(1); len(cols) != 0 || len(vals) != 0 {
		t.Fatalf("row 1 = %v %v, want empty", cols, vals)
	}
	if cols, _ := s.RowEntries(2); len(cols) != 1 || cols[0] != 0 {
		t.Fatalf("row 2 cols = %v", cols)
	}
}

func TestSparseEqual(t *testing.T) {
	base := []Coord{{Row: 0, Col: 1, Val: 2}, {Row: 1, Col: 0, Val: 3}}
	a := mustSparse(t, 2, 2, base)
	b := mustSparse(t, 2, 2, base)
	if !a.Equal(b) {
		t.Fatal("identical matrices not Equal")
	}
	c := mustSparse(t, 2, 2, []Coord{{Row: 0, Col: 1, Val: 2}, {Row: 1, Col: 0, Val: 3.5}})
	if a.Equal(c) {
		t.Fatal("different values Equal")
	}
	d := mustSparse(t, 2, 2, []Coord{{Row: 0, Col: 1, Val: 2}, {Row: 1, Col: 1, Val: 3}})
	if a.Equal(d) {
		t.Fatal("different columns Equal")
	}
	e := mustSparse(t, 2, 3, base)
	if a.Equal(e) {
		t.Fatal("different shapes Equal")
	}
	// Bitwise: -0 and +0 are distinct entries.
	nz := mustSparse(t, 1, 1, []Coord{{Row: 0, Col: 0, Val: math.Copysign(0, -1)}})
	pz := mustSparse(t, 1, 1, []Coord{{Row: 0, Col: 0, Val: 0}})
	// NewSparse drops exact zeros, including -0, so both are empty and equal.
	if nz.NNZ() != 0 || pz.NNZ() != 0 || !nz.Equal(pz) {
		t.Fatal("zero handling changed")
	}
}

// identityPatch carries every row unchanged.
func identityPatch(t *testing.T, s *Sparse) *Sparse {
	t.Helper()
	src := make([]int, s.Rows())
	for i := range src {
		src[i] = i
	}
	out, err := s.PatchRows(s.Rows(), s.Cols(), src, nil, nil)
	if err != nil {
		t.Fatalf("PatchRows: %v", err)
	}
	return out
}

func TestPatchRowsIdentity(t *testing.T) {
	s := mustSparse(t, 4, 5, []Coord{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 4, Val: 2},
		{Row: 2, Col: 1, Val: 3}, {Row: 3, Col: 2, Val: 4},
	})
	if got := identityPatch(t, s); !got.Equal(s) {
		t.Fatal("identity patch differs from source")
	}
}

// TestPatchRowsMatchesNewSparse drives random patch plans through
// PatchRows and checks the result is bit-identical to NewSparse over the
// equivalent entry set — the invariant routing.Patch builds on.
func TestPatchRowsMatchesNewSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		rows, cols := 1+rng.Intn(8), 1+rng.Intn(8)
		var entries []Coord
		seen := map[[2]int]bool{}
		for k := 0; k < rng.Intn(20); k++ {
			r, c := rng.Intn(rows), rng.Intn(cols)
			if seen[[2]int{r, c}] {
				continue
			}
			seen[[2]int{r, c}] = true
			entries = append(entries, Coord{Row: r, Col: c, Val: rng.NormFloat64()})
		}
		s := mustSparse(t, rows, cols, entries)

		// Random plan: permute/duplicate/blank source rows, drop a random
		// column set, add fresh entries into columns not carried.
		outRows := 1 + rng.Intn(8)
		srcRow := make([]int, outRows)
		for r := range srcRow {
			srcRow[r] = rng.Intn(rows+1) - 1 // -1..rows-1
		}
		dropCol := make([]bool, cols)
		for c := 0; c < cols; c++ {
			if rng.Intn(3) == 0 {
				dropCol[c] = true
			}
		}
		// Odd source rows carry whole, even ones through the mask.
		drop := func(src int) []bool {
			if src%2 == 1 {
				return nil
			}
			return dropCol
		}

		add := make([][]Coord, outRows)
		want := []Coord{}
		for r := 0; r < outRows; r++ {
			carried := map[int]bool{}
			if srcRow[r] >= 0 {
				cc, cv := s.RowEntries(srcRow[r])
				for i, c := range cc {
					if srcRow[r]%2 == 1 || !dropCol[c] {
						carried[c] = true
						want = append(want, Coord{Row: r, Col: c, Val: cv[i]})
					}
				}
			}
			for c := 0; c < cols; c++ {
				if !carried[c] && rng.Intn(4) == 0 {
					v := rng.NormFloat64()
					if rng.Intn(5) == 0 {
						v = 0 // zero adds must vanish
					}
					add[r] = append(add[r], Coord{Row: r, Col: c, Val: v})
					if v != 0 {
						want = append(want, Coord{Row: r, Col: c, Val: v})
					}
				}
			}
		}

		got, err := s.PatchRows(outRows, cols, srcRow, drop, add)
		if err != nil {
			t.Fatalf("trial %d: PatchRows: %v", trial, err)
		}
		ref := mustSparse(t, outRows, cols, want)
		if !got.Equal(ref) {
			t.Fatalf("trial %d: patched matrix differs from NewSparse reference", trial)
		}
	}
}

func TestPatchRowsShrinkCols(t *testing.T) {
	s := mustSparse(t, 2, 4, []Coord{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 3, Val: 2},
		{Row: 1, Col: 1, Val: 3},
	})
	// Carrying a row whose entries fit the narrower shape is fine.
	got, err := s.PatchRows(2, 2, []int{1, -1}, nil, nil)
	if err != nil {
		t.Fatalf("PatchRows: %v", err)
	}
	if got.Cols() != 2 || got.NNZ() != 1 {
		t.Fatalf("shape %dx%d nnz %d", got.Rows(), got.Cols(), got.NNZ())
	}
	// Carrying an out-of-range entry is not — unless drop removes it.
	if _, err := s.PatchRows(1, 2, []int{0}, nil, nil); !errors.Is(err, ErrShape) {
		t.Fatalf("carry past cols: err = %v, want ErrShape", err)
	}
	got, err = s.PatchRows(1, 2, []int{0}, func(int) []bool { return []bool{false, false, true, true} }, nil)
	if err != nil || got.NNZ() != 1 {
		t.Fatalf("drop past cols: %v, nnz %d", err, got.NNZ())
	}
}

func TestPatchRowsValidation(t *testing.T) {
	s := mustSparse(t, 2, 3, []Coord{{Row: 0, Col: 1, Val: 1}})
	cases := []struct {
		name   string
		rows   int
		cols   int
		srcRow []int
		add    [][]Coord
	}{
		{"srcRow length", 2, 3, []int{0}, nil},
		{"add length", 2, 3, []int{0, 1}, [][]Coord{nil}},
		{"src out of range", 1, 3, []int{2}, nil},
		{"src below -1", 1, 3, []int{-2}, nil},
		{"add wrong row", 1, 3, []int{-1}, [][]Coord{{{Row: 1, Col: 0, Val: 1}}}},
		{"add col range", 1, 3, []int{-1}, [][]Coord{{{Row: 0, Col: 3, Val: 1}}}},
		{"add unsorted", 1, 3, []int{-1}, [][]Coord{{{Row: 0, Col: 2, Val: 1}, {Row: 0, Col: 0, Val: 1}}}},
		{"add duplicate col", 1, 3, []int{-1}, [][]Coord{{{Row: 0, Col: 2, Val: 1}, {Row: 0, Col: 2, Val: 2}}}},
		{"add collides carried", 1, 3, []int{0}, [][]Coord{{{Row: 0, Col: 1, Val: 5}}}},
		{"negative shape", -1, 3, nil, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := s.PatchRows(tc.rows, tc.cols, tc.srcRow, nil, tc.add); !errors.Is(err, ErrShape) {
				t.Fatalf("err = %v, want ErrShape", err)
			}
		})
	}
	// A dropped carried entry frees its column for an add.
	got, err := s.PatchRows(1, 3, []int{0},
		func(int) []bool { return []bool{false, true, false} },
		[][]Coord{{{Row: 0, Col: 1, Val: 9}}})
	if err != nil {
		t.Fatalf("replace via drop+add: %v", err)
	}
	cc, cv := got.RowEntries(0)
	if len(cc) != 1 || cc[0] != 1 || cv[0] != 9 {
		t.Fatalf("replaced row = %v %v", cc, cv)
	}
}
