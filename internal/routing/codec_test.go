package routing

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"ictm/internal/linalg"
	"ictm/internal/tm"
	"ictm/internal/topology"
)

// TestMatrixCodecRoundTrip: a built routing matrix survives
// encode→decode with bitwise-identical behavior — same layout, same
// link loads to the last bit — across topology families and sizes.
func TestMatrixCodecRoundTrip(t *testing.T) {
	specs := []topology.Spec{
		{Family: topology.FamilyWaxman, N: 12, Seed: 3},
		{Family: topology.FamilyRingChords, N: 16, Chords: 5, Seed: 1},
		{Family: topology.FamilyBackboneStub, N: 40, Seed: 7},
	}
	for _, spec := range specs {
		g, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", spec.Key(), err)
		}
		m, err := Build(g)
		if err != nil {
			t.Fatalf("%s: %v", spec.Key(), err)
		}
		enc := m.AppendBinary(nil)
		if len(enc) != m.EncodedLen() {
			t.Fatalf("%s: encoded %d bytes, EncodedLen says %d", spec.Key(), len(enc), m.EncodedLen())
		}
		back, err := DecodeMatrix(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", spec.Key(), err)
		}
		if back.N != m.N || back.L != m.L {
			t.Fatalf("%s: layout %d/%d, want %d/%d", spec.Key(), back.N, back.L, m.N, m.L)
		}
		if !bytes.Equal(enc, back.AppendBinary(nil)) {
			t.Fatalf("%s: re-encoded bytes differ", spec.Key())
		}
		x := tm.New(m.N)
		for i := 0; i < m.N; i++ {
			for j := 0; j < m.N; j++ {
				x.Set(i, j, float64(1+i*m.N+j)/3.0)
			}
		}
		want, err := m.LinkLoads(x)
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.LinkLoads(x)
		if err != nil {
			t.Fatal(err)
		}
		for r := range want {
			if want[r] != got[r] {
				t.Fatalf("%s: LinkLoads row %d differs after round trip: %g vs %g", spec.Key(), r, got[r], want[r])
			}
		}
	}
}

// TestDecodeMatrixRejectsMalformed: truncation, version skew and layout
// metadata inconsistent with the embedded CSR all fail with ErrDecode.
func TestDecodeMatrixRejectsMalformed(t *testing.T) {
	g, err := topology.Waxman(8, 0.6, 0.4, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	enc := m.AppendBinary(nil)
	for _, cut := range []int{0, 1, matrixHeaderLen, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeMatrix(enc[:cut]); !errors.Is(err, ErrDecode) {
			t.Fatalf("prefix of %d bytes: err = %v, want ErrDecode", cut, err)
		}
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 9
	if _, err := DecodeMatrix(bad); !errors.Is(err, ErrDecode) {
		t.Fatalf("wrong version: err = %v, want ErrDecode", err)
	}
	// Inconsistent layout: claim one node more than the CSR provides.
	bad = append([]byte(nil), enc...)
	bad[1]++
	if _, err := DecodeMatrix(bad); !errors.Is(err, ErrDecode) {
		t.Fatalf("inconsistent layout: err = %v, want ErrDecode", err)
	}
	// Zero nodes is never a valid routing layout.
	bad = append([]byte(nil), enc...)
	for i := 1; i < 9; i++ {
		bad[i] = 0
	}
	if _, err := DecodeMatrix(bad); !errors.Is(err, ErrDecode) {
		t.Fatalf("n=0: err = %v, want ErrDecode", err)
	}
}

// TestDecodeMatrixBoundsNodes: a header claiming more than
// MaxDecodeNodes nodes — such as an n just under 2^16, whose n² columns
// a solver would allocate as vectors — fails on the layout check before
// the CSR is even parsed, and the node cap is exactly the one the CSR
// column cap implies.
func TestDecodeMatrixBoundsNodes(t *testing.T) {
	if MaxDecodeNodes*MaxDecodeNodes != linalg.MaxDecodeDim {
		t.Fatalf("MaxDecodeNodes²=%d, want linalg.MaxDecodeDim=%d", MaxDecodeNodes*MaxDecodeNodes, linalg.MaxDecodeDim)
	}
	g, err := topology.Waxman(8, 0.6, 0.4, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	enc := m.AppendBinary(nil)
	for _, n := range []uint64{MaxDecodeNodes + 1, 1<<16 - 1} {
		bad := append([]byte(nil), enc...)
		binary.LittleEndian.PutUint64(bad[1:], n)
		_, err := DecodeMatrix(bad)
		if !errors.Is(err, ErrDecode) || !strings.Contains(err.Error(), "implausible layout") {
			t.Fatalf("n=%d: err = %v, want the implausible-layout ErrDecode", n, err)
		}
	}
}
