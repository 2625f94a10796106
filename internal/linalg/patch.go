package linalg

import (
	"fmt"
	"math"
)

// RowEntries returns the stored column indices and values of row i as
// views into the matrix's backing arrays (do not mutate). Columns are in
// increasing order, the CSR invariant. It is the read side of the
// patching primitives: routing.Patch scans old rows through it to decide
// which stored entries a topology delta touches.
func (s *Sparse) RowEntries(i int) ([]int, []float64) {
	lo, hi := s.rowPtr[i], s.rowPtr[i+1]
	return s.colIdx[lo:hi], s.val[lo:hi]
}

// Equal reports whether the two matrices have identical shape and
// bitwise-identical stored entries (same rows, cols, row extents, column
// indices, and float bit patterns, so NaN payloads and signed zeros are
// distinguished). It is the assertion backing the patched-equals-rebuilt
// invariant of routing.Patch.
func (s *Sparse) Equal(o *Sparse) bool {
	if s.rows != o.rows || s.cols != o.cols || len(s.val) != len(o.val) {
		return false
	}
	for i := 0; i <= s.rows; i++ {
		if s.rowPtr[i] != o.rowPtr[i] {
			return false
		}
	}
	for k := range s.val {
		if s.colIdx[k] != o.colIdx[k] || math.Float64bits(s.val[k]) != math.Float64bits(o.val[k]) {
			return false
		}
	}
	return true
}

// PatchRows builds a rows×cols matrix by reusing the receiver's rows
// wholesale and editing only where a change is declared — the
// copy-on-write path that lets a routing matrix absorb a topology delta
// without full reassembly.
//
// srcRow maps each output row to the receiver row it carries entries
// from (-1 starts the row empty). drop, if non-nil, filters the carried
// entries: drop(src) returns a column mask for source row src (nil keeps
// the whole row), and a stored entry at column col is omitted when
// mask[col] is true; the mask must cover the receiver's columns. add
// lists extra entries per output row (nil for none): each add[r] must
// hold entries of Row r with strictly increasing in-range columns;
// zero-valued adds are dropped, matching NewSparse. An add column
// colliding with a surviving carried entry is a duplicate, exactly as in
// NewSparse.
//
// The output is bit-identical to NewSparse over the equivalent entry
// set — same canonical ordering, same dropped zeros — in O(nnz) with no
// sorting, because carried rows are already ordered and adds are merged
// in place. A row with neither a mask nor adds is copied in bulk.
func (s *Sparse) PatchRows(rows, cols int, srcRow []int, drop func(src int) []bool, add [][]Coord) (*Sparse, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("%w: sparse %dx%d", ErrShape, rows, cols)
	}
	if len(srcRow) != rows {
		return nil, fmt.Errorf("%w: srcRow of %d for %d patched rows", ErrShape, len(srcRow), rows)
	}
	if add != nil && len(add) != rows {
		return nil, fmt.Errorf("%w: add rows of %d for %d patched rows", ErrShape, len(add), rows)
	}
	capHint := s.NNZ()
	for _, a := range add {
		capHint += len(a)
	}
	out := &Sparse{
		rows:   rows,
		cols:   cols,
		rowPtr: make([]int, rows+1),
		colIdx: make([]int, 0, capHint),
		val:    make([]float64, 0, capHint),
	}
	for r := 0; r < rows; r++ {
		var cc []int
		var cv []float64
		var mask []bool
		src := srcRow[r]
		switch {
		case src == -1:
			// fresh row
		case src >= 0 && src < s.rows:
			cc, cv = s.RowEntries(src)
			if drop != nil {
				mask = drop(src)
			}
		default:
			return nil, fmt.Errorf("%w: patched row %d sourced from row %d of a %dx%d matrix", ErrShape, r, src, s.rows, s.cols)
		}
		var adds []Coord
		if add != nil {
			adds = add[r]
		}
		ci, prev := 0, -1
		for _, a := range adds {
			if a.Row != r {
				return nil, fmt.Errorf("%w: add entry (%d,%d) listed under patched row %d", ErrShape, a.Row, a.Col, r)
			}
			if a.Col < 0 || a.Col >= cols {
				return nil, fmt.Errorf("%w: entry (%d,%d) outside %dx%d", ErrShape, a.Row, a.Col, rows, cols)
			}
			if a.Col <= prev {
				return nil, fmt.Errorf("%w: add entries of row %d not strictly increasing at col %d", ErrShape, r, a.Col)
			}
			prev = a.Col
			// Carried entries left of the add; a.Col < cols bounds them.
			end := ci
			for end < len(cc) && cc[end] < a.Col {
				end++
			}
			out.colIdx, out.val = appendKept(out.colIdx, out.val, cc[ci:end], cv[ci:end], mask)
			ci = end
			if a.Val == 0 {
				continue // a carried entry in its column stays
			}
			if ci < len(cc) && cc[ci] == a.Col && (mask == nil || !mask[a.Col]) {
				return nil, fmt.Errorf("%w: duplicate entry (%d,%d)", ErrShape, r, a.Col)
			}
			out.colIdx = append(out.colIdx, a.Col)
			out.val = append(out.val, a.Val)
		}
		// The rest of the row, up to the first column past the new width,
		// which only a drop may remove.
		end := len(cc)
		for end > ci && cc[end-1] >= cols {
			end--
		}
		for _, c := range cc[end:] {
			if mask == nil || !mask[c] {
				return nil, fmt.Errorf("%w: entry (%d,%d) outside %dx%d", ErrShape, r, c, rows, cols)
			}
		}
		out.colIdx, out.val = appendKept(out.colIdx, out.val, cc[ci:end], cv[ci:end], mask)
		out.rowPtr[r+1] = len(out.val)
	}
	return out, nil
}

// appendKept appends the entries of cc/cv whose column mask does not
// drop (all of them for a nil mask), copying each run of kept entries
// in bulk.
func appendKept(dc []int, dv []float64, cc []int, cv []float64, mask []bool) ([]int, []float64) {
	for len(cc) > 0 {
		k := len(cc)
		if mask != nil {
			k = 0
			for k < len(cc) && !mask[cc[k]] {
				k++
			}
		}
		dc, dv = append(dc, cc[:k]...), append(dv, cv[:k]...)
		if k < len(cc) {
			k++ // the dropped entry
		}
		cc, cv = cc[k:], cv[k:]
	}
	return dc, dv
}
