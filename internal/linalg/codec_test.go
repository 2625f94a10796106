package linalg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// sparseEqualBitwise reports whether two CSR matrices are identical in
// stored form: same shape and the same (rowPtr, colIdx, val) arrays bit
// for bit — the equality a store round trip must preserve so every
// downstream accumulation order survives serialization.
func sparseEqualBitwise(a, b *Sparse) bool {
	if a.rows != b.rows || a.cols != b.cols || len(a.val) != len(b.val) {
		return false
	}
	for i := range a.rowPtr {
		if a.rowPtr[i] != b.rowPtr[i] {
			return false
		}
	}
	for k := range a.val {
		if a.colIdx[k] != b.colIdx[k] || a.val[k] != b.val[k] {
			return false
		}
	}
	return true
}

// TestSparseCodecRoundTrip: encode→decode reproduces the matrix bitwise
// across random shapes and fills, including empty rows, empty matrices
// and negative values.
func TestSparseCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		m, n := 1+r.Intn(30), 1+r.Intn(30)
		fill := []float64{0, 0.05, 0.2, 0.9}[trial%4]
		a := randomSparseMatrix(r, m, n, fill)
		// Mix in negative values: the codec must be sign-faithful even
		// though routing matrices are nonnegative.
		if trial%3 == 0 {
			data := a.data
			for i := range data {
				if data[i] != 0 && r.Intn(2) == 0 {
					data[i] = -data[i]
				}
			}
		}
		s := sparseFromDense(a)
		enc := s.AppendBinary(nil)
		if len(enc) != s.EncodedLen() {
			t.Fatalf("trial %d: encoded %d bytes, EncodedLen says %d", trial, len(enc), s.EncodedLen())
		}
		back, err := DecodeSparse(enc)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if !sparseEqualBitwise(s, back) {
			t.Fatalf("trial %d: decoded matrix differs from original", trial)
		}
		// The encoding is canonical: re-encoding the decoded matrix
		// reproduces the bytes.
		if !bytes.Equal(enc, back.AppendBinary(nil)) {
			t.Fatalf("trial %d: re-encoded bytes differ", trial)
		}
	}
}

// TestSparseCodecAppend: AppendBinary extends the caller's buffer
// in place rather than replacing it.
func TestSparseCodecAppend(t *testing.T) {
	s, err := NewSparse(2, 2, []Coord{{Row: 0, Col: 1, Val: 3}})
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("head")
	enc := s.AppendBinary(append([]byte(nil), prefix...))
	if !bytes.HasPrefix(enc, prefix) {
		t.Fatalf("AppendBinary dropped the existing buffer prefix")
	}
	back, err := DecodeSparse(enc[len(prefix):])
	if err != nil {
		t.Fatal(err)
	}
	if !sparseEqualBitwise(s, back) {
		t.Fatal("decoded matrix differs after prefixed append")
	}
}

// TestSparseDecodeRejectsTruncation: every proper prefix of a valid
// encoding fails with ErrDecode — truncation can never misparse or
// panic.
func TestSparseDecodeRejectsTruncation(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	s := sparseFromDense(randomSparseMatrix(r, 7, 9, 0.3))
	enc := s.AppendBinary(nil)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeSparse(enc[:cut]); !errors.Is(err, ErrDecode) {
			t.Fatalf("prefix of %d/%d bytes: err = %v, want ErrDecode", cut, len(enc), err)
		}
	}
	if _, err := DecodeSparse(append(append([]byte(nil), enc...), 0)); !errors.Is(err, ErrDecode) {
		t.Fatalf("trailing byte: err = %v, want ErrDecode", err)
	}
}

// TestSparseDecodeRejectsCorruption: single bit flips anywhere in the
// encoding either fail with ErrDecode or decode into some matrix — but
// never panic and never return a structurally invalid CSR. (A flip in
// the value section legitimately yields a different valid matrix; the
// store layer's checksums exist to catch those.)
func TestSparseDecodeRejectsCorruption(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	s := sparseFromDense(randomSparseMatrix(r, 6, 8, 0.25))
	enc := s.AppendBinary(nil)
	for pos := 0; pos < len(enc); pos++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), enc...)
			mut[pos] ^= 1 << bit
			back, err := DecodeSparse(mut)
			if err != nil {
				if !errors.Is(err, ErrDecode) {
					t.Fatalf("flip %d.%d: err = %v, want ErrDecode", pos, bit, err)
				}
				continue
			}
			// A surviving decode must uphold the CSR invariants: exercise
			// a mat-vec, which would index out of range otherwise.
			x := make([]float64, back.Cols())
			for i := range x {
				x[i] = 1
			}
			if _, err := back.MulVec(x); err != nil {
				t.Fatalf("flip %d.%d: decoded matrix rejects its own shape: %v", pos, bit, err)
			}
		}
	}
}

// TestSparseDecodeRejectsForgedHeaders: headers claiming implausible
// dimensions fail before allocating.
func TestSparseDecodeRejectsForgedHeaders(t *testing.T) {
	s, err := NewSparse(1, 1, []Coord{{Row: 0, Col: 0, Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	enc := s.AppendBinary(nil)
	for _, off := range []int{1, 9, 17} { // rows, cols, nnz fields
		mut := append([]byte(nil), enc...)
		for i := 0; i < 8; i++ {
			mut[off+i] = 0xff
		}
		if _, err := DecodeSparse(mut); !errors.Is(err, ErrDecode) {
			t.Fatalf("forged header at %d: err = %v, want ErrDecode", off, err)
		}
	}
	if _, err := DecodeSparse([]byte{99}); !errors.Is(err, ErrDecode) {
		t.Fatalf("wrong version: err = %v, want ErrDecode", err)
	}
	// Columns carry no payload, so only MaxDecodeDim bounds them: the
	// limit itself decodes, one past it does not.
	for _, cols := range []uint64{MaxDecodeDim, MaxDecodeDim + 1} {
		mut := append([]byte(nil), enc...)
		binary.LittleEndian.PutUint64(mut[9:], cols)
		back, err := DecodeSparse(mut)
		if cols <= MaxDecodeDim && (err != nil || back.Cols() != int(cols)) {
			t.Fatalf("cols=%d at the limit: err = %v", cols, err)
		}
		if cols > MaxDecodeDim && !errors.Is(err, ErrDecode) {
			t.Fatalf("cols=%d past the limit: err = %v, want ErrDecode", cols, err)
		}
	}
}

// FuzzSparseDecode: DecodeSparse is total over arbitrary input — it
// returns (matrix, nil) or (nil, ErrDecode), never panics, and anything
// it accepts respects the MaxDecodeDim cap and survives a canonical
// re-encode round trip.
func FuzzSparseDecode(f *testing.F) {
	r := rand.New(rand.NewSource(44))
	f.Add([]byte{})
	f.Add([]byte{sparseCodecVersion})
	for _, dims := range [][2]int{{1, 1}, {3, 5}, {8, 8}} {
		s := sparseFromDense(randomSparseMatrix(r, dims[0], dims[1], 0.3))
		f.Add(s.AppendBinary(nil))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSparse(data)
		if err != nil {
			if !errors.Is(err, ErrDecode) {
				t.Fatalf("err = %v, want ErrDecode", err)
			}
			return
		}
		if s.Rows() > MaxDecodeDim || s.Cols() > MaxDecodeDim {
			t.Fatalf("accepted %dx%d past the %d-per-side cap", s.Rows(), s.Cols(), MaxDecodeDim)
		}
		enc := s.AppendBinary(nil)
		back, err := DecodeSparse(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted input: %v", err)
		}
		if !sparseEqualBitwise(s, back) {
			t.Fatal("accepted input does not round-trip")
		}
	})
}
