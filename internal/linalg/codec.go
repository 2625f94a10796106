package linalg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrDecode reports a byte stream that is not a valid Sparse encoding:
// wrong version, truncated or trailing bytes, or structural invariants
// (monotone row pointers, in-range sorted column indices, no stored
// zeros) violated. Decoding is total — any input yields a Sparse or an
// ErrDecode, never a panic — so a disk-backed store can map it onto its
// corruption error instead of crashing the process on a bad blob.
var ErrDecode = errors.New("linalg: invalid sparse encoding")

// sparseCodecVersion is the current wire version of the Sparse binary
// encoding. Bump it when the layout changes; DecodeSparse rejects
// versions it does not speak, so stale blobs fail typed instead of
// misparsing.
const sparseCodecVersion = 1

// sparseHeaderLen is the fixed prefix: version byte plus rows, cols and
// nnz as little-endian uint64s.
const sparseHeaderLen = 1 + 3*8

// MaxDecodeDim bounds the row and column counts DecodeSparse accepts.
// Rows are paid for by the payload (one row pointer each), columns are
// not: a consumer allocates a Cols()-length vector per solve, so an
// unbounded cols field lets a few corrupt header bytes cost gigabytes
// downstream. 2^20 columns is an 8 MiB vector, well above the n²=40000
// columns of an n=200 routing matrix.
const MaxDecodeDim = 1 << 20

// AppendBinary appends the versioned binary encoding of s to buf and
// returns the extended slice. The layout (all integers little-endian
// uint64, values as IEEE-754 bit patterns) is
//
//	version(1) | rows | cols | nnz | rowPtr[rows+1] | colIdx[nnz] | val[nnz]
//
// The encoding is canonical: equal matrices produce equal bytes, and
// DecodeSparse reconstructs the receiver bitwise — every downstream
// accumulation order, and therefore every float result, is preserved
// across a store round trip.
func (s *Sparse) AppendBinary(buf []byte) []byte {
	buf = append(buf, sparseCodecVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.rows))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.cols))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(s.val)))
	for _, p := range s.rowPtr {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p))
	}
	for _, j := range s.colIdx {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(j))
	}
	for _, v := range s.val {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// EncodedLen returns the exact byte length AppendBinary will emit for s.
func (s *Sparse) EncodedLen() int {
	return sparseHeaderLen + 8*(s.rows+1) + 16*len(s.val)
}

// DecodeSparse parses the encoding produced by AppendBinary, consuming
// the whole input. Every structural invariant of NewSparse is
// re-checked — row pointers start at 0, end at nnz and never decrease,
// column indices are in range and strictly increasing within a row, no
// stored value is zero — so a decoded matrix is indistinguishable from
// a constructed one and malformed input fails with ErrDecode before any
// oversized allocation.
func DecodeSparse(data []byte) (*Sparse, error) {
	if len(data) < sparseHeaderLen {
		return nil, fmt.Errorf("%w: %d bytes, want at least the %d-byte header", ErrDecode, len(data), sparseHeaderLen)
	}
	if data[0] != sparseCodecVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrDecode, data[0], sparseCodecVersion)
	}
	rows := binary.LittleEndian.Uint64(data[1:])
	cols := binary.LittleEndian.Uint64(data[9:])
	nnz := binary.LittleEndian.Uint64(data[17:])
	// Bound the dimensions before computing the expected length so the
	// size arithmetic cannot overflow and a forged header cannot trigger
	// a huge allocation, here or in a consumer sizing vectors by Cols().
	if rows > MaxDecodeDim || cols > MaxDecodeDim || nnz >= 1<<32 {
		return nil, fmt.Errorf("%w: implausible dimensions %dx%d nnz=%d (limit %d per side)", ErrDecode, rows, cols, nnz, MaxDecodeDim)
	}
	if nnz > rows*cols {
		return nil, fmt.Errorf("%w: nnz=%d exceeds %dx%d", ErrDecode, nnz, rows, cols)
	}
	want := uint64(sparseHeaderLen) + 8*(rows+1) + 16*nnz
	if uint64(len(data)) != want {
		return nil, fmt.Errorf("%w: %d bytes for %dx%d nnz=%d, want %d", ErrDecode, len(data), rows, cols, nnz, want)
	}
	s := &Sparse{
		rows:   int(rows),
		cols:   int(cols),
		rowPtr: make([]int, rows+1),
		colIdx: make([]int, nnz),
		val:    make([]float64, nnz),
	}
	off := sparseHeaderLen
	for i := range s.rowPtr {
		p := binary.LittleEndian.Uint64(data[off:])
		off += 8
		if p > nnz {
			return nil, fmt.Errorf("%w: rowPtr[%d]=%d exceeds nnz=%d", ErrDecode, i, p, nnz)
		}
		s.rowPtr[i] = int(p)
	}
	if s.rowPtr[0] != 0 || s.rowPtr[rows] != int(nnz) {
		return nil, fmt.Errorf("%w: rowPtr spans [%d,%d], want [0,%d]", ErrDecode, s.rowPtr[0], s.rowPtr[rows], nnz)
	}
	for i := 0; i < int(rows); i++ {
		if s.rowPtr[i] > s.rowPtr[i+1] {
			return nil, fmt.Errorf("%w: rowPtr decreases at row %d", ErrDecode, i)
		}
	}
	for k := range s.colIdx {
		j := binary.LittleEndian.Uint64(data[off:])
		off += 8
		if j >= cols {
			return nil, fmt.Errorf("%w: colIdx[%d]=%d outside %d columns", ErrDecode, k, j, cols)
		}
		s.colIdx[k] = int(j)
	}
	for i := 0; i < int(rows); i++ {
		for k := s.rowPtr[i] + 1; k < s.rowPtr[i+1]; k++ {
			if s.colIdx[k-1] >= s.colIdx[k] {
				return nil, fmt.Errorf("%w: row %d columns not strictly increasing at entry %d", ErrDecode, i, k)
			}
		}
	}
	for k := range s.val {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		off += 8
		if v == 0 {
			return nil, fmt.Errorf("%w: stored zero at entry %d", ErrDecode, k)
		}
		s.val[k] = v
	}
	return s, nil
}
