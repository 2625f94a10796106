// Binary serialization of routing matrices: the wire form of the shared
// artifact store's matrix blobs. A Matrix is a pure function of its
// topology, so the codec's job is exactness, not compression — the
// decoded CSR must be bitwise identical to the built one, making every
// estimate computed from a stored matrix byte-equal to one computed
// from a fresh routing.Build.
package routing

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ictm/internal/linalg"
)

// ErrDecode reports a byte stream that is not a valid Matrix encoding.
// Decoding is total: malformed input — wrong version, truncation,
// layout metadata inconsistent with the embedded CSR — fails typed,
// never panics, so a store can classify bad blobs as corruption.
var ErrDecode = errors.New("routing: invalid matrix encoding")

// matrixCodecVersion is the wire version of the Matrix encoding;
// DecodeMatrix rejects others so stale blobs fail typed.
const matrixCodecVersion = 1

// matrixHeaderLen is the fixed prefix: version byte plus N and L as
// little-endian uint64s.
const matrixHeaderLen = 1 + 2*8

// MaxDecodeNodes bounds the network size DecodeMatrix accepts: n² is
// the CSR's column count, so the cap is the square root of
// linalg.MaxDecodeDim. A solver sizes its n²-length vectors from the
// decoded n, so the bound must hold before any consumer sees it.
const MaxDecodeNodes = 1 << 10

// AppendBinary appends the versioned binary encoding of m to buf and
// returns the extended slice:
//
//	version(1) | N | L | Sparse encoding of the CSR view
func (m *Matrix) AppendBinary(buf []byte) []byte {
	buf = append(buf, matrixCodecVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.N))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.L))
	return m.csr.AppendBinary(buf)
}

// EncodedLen returns the exact byte length AppendBinary will emit for m.
func (m *Matrix) EncodedLen() int { return matrixHeaderLen + m.csr.EncodedLen() }

// DecodeMatrix parses the encoding produced by AppendBinary, consuming
// the whole input. The layout metadata is validated against the
// embedded CSR (rows = L + 2n, cols = n²), so a decoded matrix upholds
// every invariant of a built one.
func DecodeMatrix(data []byte) (*Matrix, error) {
	if len(data) < matrixHeaderLen {
		return nil, fmt.Errorf("%w: %d bytes, want at least the %d-byte header", ErrDecode, len(data), matrixHeaderLen)
	}
	if data[0] != matrixCodecVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrDecode, data[0], matrixCodecVersion)
	}
	n := binary.LittleEndian.Uint64(data[1:])
	l := binary.LittleEndian.Uint64(data[9:])
	// The CSR decoder bounds its own dimensions; bounding n and l before
	// it runs keeps the consistency arithmetic below overflow-free.
	if n == 0 || n > MaxDecodeNodes || l > linalg.MaxDecodeDim {
		return nil, fmt.Errorf("%w: implausible layout n=%d l=%d (limit n=%d)", ErrDecode, n, l, MaxDecodeNodes)
	}
	csr, err := linalg.DecodeSparse(data[matrixHeaderLen:])
	if err != nil {
		return nil, fmt.Errorf("%w: csr: %v", ErrDecode, err)
	}
	m, err := FromCSR(csr, int(n), int(l))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDecode, err)
	}
	return m, nil
}
