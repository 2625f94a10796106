package linalg

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// updateCorpus rewrites the committed FuzzSparseDecode seed corpus
// instead of checking it:
//
//	go test ./internal/linalg -run FuzzCorpus -update-corpus
var updateCorpus = flag.Bool("update-corpus", false, "rewrite the committed fuzz corpus")

// corpusDir is where `go test` picks the committed seeds up
// automatically when running FuzzSparseDecode as a unit test.
var corpusDir = filepath.Join("testdata", "fuzz", "FuzzSparseDecode")

// corpusSeeds are the committed inputs: valid encodings across shapes,
// the interesting malformations (truncation, forged header, version
// skew, bit flip), and the degenerate prefixes — one reproducible set,
// so a decoder regression fails the plain test suite, not just a long
// fuzz run.
func corpusSeeds() [][]byte {
	r := rand.New(rand.NewSource(97))
	var seeds [][]byte
	seeds = append(seeds, []byte{}, []byte{sparseCodecVersion}, []byte{99})
	for _, dims := range [][2]int{{1, 1}, {2, 7}, {5, 5}, {11, 3}} {
		s := sparseFromDense(randomSparseMatrix(r, dims[0], dims[1], 0.35))
		enc := s.AppendBinary(nil)
		seeds = append(seeds, enc)
		seeds = append(seeds, enc[:len(enc)/2], enc[:len(enc)-1]) // truncations
		flip := append([]byte(nil), enc...)                       // bit flip mid-payload
		flip[len(flip)/3] ^= 0x10
		seeds = append(seeds, flip)
	}
	forged := corpusSeedsForgedHeader()
	return append(seeds, forged...)
}

// corpusSeedsForgedHeader builds encodings whose headers overclaim
// their payload — the allocation-bomb shape the decoder must bound.
func corpusSeedsForgedHeader() [][]byte {
	s, err := NewSparse(1, 2, []Coord{{Row: 0, Col: 1, Val: 2.5}})
	if err != nil {
		panic(err)
	}
	enc := s.AppendBinary(nil)
	var out [][]byte
	for _, off := range []int{1, 9, 17} { // rows, cols, nnz fields
		mut := append([]byte(nil), enc...)
		for i := 0; i < 8; i++ {
			mut[off+i] = 0xff
		}
		out = append(out, mut)
	}
	return out
}

// TestFuzzCorpusCommitted pins the committed FuzzSparseDecode corpus:
// the files exist in Go's "go test fuzz v1" format, and every entry
// upholds the fuzz target's property — DecodeSparse returns a valid
// matrix or ErrDecode, never panics, and accepted inputs round-trip.
// (go test runs the same files through FuzzSparseDecode itself; this
// test additionally fails loudly if the corpus goes missing or stale.)
func TestFuzzCorpusCommitted(t *testing.T) {
	if *updateCorpus {
		if err := os.RemoveAll(corpusDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(corpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range corpusSeeds() {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed)))
			name := filepath.Join(corpusDir, fmt.Sprintf("seed-%03d", i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatalf("committed corpus missing (regenerate with -update-corpus): %v", err)
	}
	if len(entries) < 10 {
		t.Fatalf("committed corpus has %d entries, want at least 10", len(entries))
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(corpusDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not in go test fuzz v1 format", e.Name())
		}
		quoted := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
		decoded, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("%s: unquoting corpus entry: %v", e.Name(), err)
		}
		data := []byte(decoded)

		// The fuzz target's property, replayed directly.
		s, err := DecodeSparse(data)
		if err != nil {
			continue
		}
		enc := s.AppendBinary(nil)
		back, err := DecodeSparse(enc)
		if err != nil {
			t.Fatalf("%s: re-decode of accepted input: %v", e.Name(), err)
		}
		if !sparseEqualBitwise(s, back) {
			t.Fatalf("%s: accepted input does not round-trip", e.Name())
		}
	}
}
