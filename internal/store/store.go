// Package store is the shared disk-backed artifact store behind the
// online estimation service: a content-addressed key→blob map that
// turns the serve engine's per-process pools into a cache N stateless
// icserve replicas — and restarted processes — read through. The
// expensive artifacts of the pipeline are pure functions of their keys
// (a routing matrix of its topology's canonical descriptor, a prior of
// its canonical state JSON), so the store never needs coordination:
// concurrent writers of one key produce identical bytes, and an atomic
// temp-file+rename publish makes readers see either nothing or a whole
// blob, never a torn one.
//
// Every blob is wrapped in a checksummed frame (magic, version, kind,
// length, SHA-256). A damaged file — truncated by a crashed writer's
// filesystem, bit-flipped by a bad disk — fails reads with the typed
// ErrCorrupt instead of corrupting an estimate or crashing the process;
// callers treat corruption as a miss and rebuild, overwriting the bad
// blob with a good one.
//
// Layout under the root directory, one file per blob, file names the
// SHA-256 of the key (keys are client-chosen strings and canonical
// descriptors, neither of which is path-safe):
//
//	matrices/<sha256(canonical topology key)>.blob — routing.Matrix, binary codec
//	<namespace>/<sha256(key)>.blob                 — JSON records (registrations)
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"ictm/internal/routing"
)

// ErrNotFound reports a key with no stored blob: the read-through miss,
// after which the caller rebuilds and writes through.
var ErrNotFound = errors.New("store: not found")

// ErrCorrupt reports a stored blob that failed validation — bad magic,
// unknown frame version, length or checksum mismatch, wrong kind for
// the requested key, or a payload its codec rejects. Callers recover by
// rebuilding: the artifacts are deterministic, so overwriting a corrupt
// blob restores the store.
var ErrCorrupt = errors.New("store: corrupt blob")

// Frame layout: magic(4) | version(1) | kind(1) | payload len uint64 |
// payload | SHA-256 over everything before the checksum. The checksum
// covers the header too, so a flipped kind or length byte is caught the
// same as a flipped payload byte.
const (
	frameMagic   = "ICBS"
	frameVersion = 1
	frameHdrLen  = 4 + 1 + 1 + 8
	checksumLen  = sha256.Size
)

// Blob kinds: the frame-level type tag, checked on read so a matrix
// blob can never be misparsed as a JSON record or vice versa.
const (
	kindMatrix byte = 1
	kindJSON   byte = 2
)

// NSMatrices is the namespace of serialized routing matrices, keyed by
// canonical topology descriptor (topology.Spec.Key()).
const NSMatrices = "matrices"

// Counters is a snapshot of one process's store traffic; the serve
// layer surfaces it in /v1/stats. Counters are per-process, not
// per-directory: each replica reports its own hits and misses.
type Counters struct {
	// Hits and Misses count reads that found (respectively did not find)
	// a valid blob; Corrupt counts reads that found a damaged one
	// (reported to the caller as ErrCorrupt, typically handled as a
	// rebuild-and-overwrite miss).
	Hits, Misses, Corrupt int64
	// Writes counts blobs published; WriteErrors counts failed publishes
	// (disk full, permissions) — the store stays best-effort, the caller
	// keeps its in-memory artifact.
	Writes, WriteErrors int64
}

// Store is a disk-backed blob store rooted at one directory. It is safe
// for concurrent use by any number of goroutines and processes sharing
// the directory: reads open published files only, and writes publish
// via atomic rename.
type Store struct {
	dir string

	hits, misses, corrupt atomic.Int64
	writes, writeErrors   atomic.Int64
}

// Open returns a store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

// Counters returns a snapshot of the process-lifetime traffic counters.
func (s *Store) Counters() Counters {
	return Counters{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Corrupt:     s.corrupt.Load(),
		Writes:      s.writes.Load(),
		WriteErrors: s.writeErrors.Load(),
	}
}

// blobPath maps (namespace, key) to the blob's file path. Keys are
// hashed: they are canonical descriptors and client-chosen strings,
// arbitrarily long and not path-safe, while their digests are fixed,
// collision-resistant file names. The key itself is recoverable from
// JSON records (which embed it), never needed for matrices.
func (s *Store) blobPath(ns, key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, ns, hex.EncodeToString(sum[:])+".blob")
}

// frame wraps a payload in the checksummed on-disk container.
func frame(kind byte, payload []byte) []byte {
	buf := make([]byte, 0, frameHdrLen+len(payload)+checksumLen)
	buf = append(buf, frameMagic...)
	buf = append(buf, frameVersion, kind)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

// unframe validates a frame and returns its payload. Every failure mode
// is ErrCorrupt: the file exists, so the only explanation for bad bytes
// is damage (or a version this binary does not speak, which the caller
// handles the same way — rebuild and overwrite).
func unframe(kind byte, data []byte) ([]byte, error) {
	if len(data) < frameHdrLen+checksumLen {
		return nil, fmt.Errorf("%w: %d bytes, want at least %d", ErrCorrupt, len(data), frameHdrLen+checksumLen)
	}
	if string(data[:4]) != frameMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:4])
	}
	if data[4] != frameVersion {
		return nil, fmt.Errorf("%w: frame version %d, want %d", ErrCorrupt, data[4], frameVersion)
	}
	plen := binary.LittleEndian.Uint64(data[6:])
	if plen != uint64(len(data)-frameHdrLen-checksumLen) {
		return nil, fmt.Errorf("%w: payload length %d in a %d-byte frame", ErrCorrupt, plen, len(data))
	}
	body, sum := data[:len(data)-checksumLen], data[len(data)-checksumLen:]
	want := sha256.Sum256(body)
	if string(sum) != string(want[:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	if data[5] != kind {
		return nil, fmt.Errorf("%w: blob kind %d, want %d", ErrCorrupt, data[5], kind)
	}
	return data[frameHdrLen : frameHdrLen+plen], nil
}

// put publishes one framed blob atomically: write to a temp file in the
// destination directory, sync, rename. Concurrent writers of the same
// key race benignly — the artifacts are deterministic, so every writer
// publishes the same bytes and either rename wins.
func (s *Store) put(ns, key string, kind byte, payload []byte) error {
	err := s.putErr(ns, key, kind, payload)
	if err != nil {
		s.writeErrors.Add(1)
	} else {
		s.writes.Add(1)
	}
	return err
}

func (s *Store) putErr(ns, key string, kind byte, payload []byte) error {
	path := s.blobPath(ns, key)
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: put %s/%s: %w", ns, key, err)
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: put %s/%s: %w", ns, key, err)
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	if _, err := tmp.Write(frame(kind, payload)); err != nil {
		tmp.Close()
		return fmt.Errorf("store: put %s/%s: %w", ns, key, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: put %s/%s: %w", ns, key, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: put %s/%s: %w", ns, key, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: put %s/%s: %w", ns, key, err)
	}
	return nil
}

// get reads and validates one blob. A missing file is ErrNotFound (a
// miss); anything else wrong with the bytes is ErrCorrupt.
func (s *Store) get(ns, key string, kind byte) ([]byte, error) {
	data, err := os.ReadFile(s.blobPath(ns, key))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			s.misses.Add(1)
			return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, ns, key)
		}
		s.corrupt.Add(1)
		return nil, fmt.Errorf("%w: %s/%s: %v", ErrCorrupt, ns, key, err)
	}
	payload, err := unframe(kind, data)
	if err != nil {
		s.corrupt.Add(1)
		return nil, fmt.Errorf("%s/%s: %w", ns, key, err)
	}
	s.hits.Add(1)
	return payload, nil
}

// PutMatrix stores a routing matrix under its topology's canonical key.
func (s *Store) PutMatrix(key string, m *routing.Matrix) error {
	return s.put(NSMatrices, key, kindMatrix, m.AppendBinary(make([]byte, 0, m.EncodedLen())))
}

// GetMatrix loads the routing matrix stored under a canonical topology
// key: bitwise identical to the matrix that was stored, hence to the
// routing.Build output it came from. ErrNotFound on a miss; ErrCorrupt
// for a damaged or undecodable blob.
func (s *Store) GetMatrix(key string) (*routing.Matrix, error) {
	payload, err := s.get(NSMatrices, key, kindMatrix)
	if err != nil {
		return nil, err
	}
	m, err := routing.DecodeMatrix(payload)
	if err != nil {
		// The frame checksum held but the codec refused the payload: a
		// writer bug or version skew, handled like damage — rebuild.
		s.corrupt.Add(1)
		s.hits.Add(-1)
		return nil, fmt.Errorf("%w: matrix %s: %v", ErrCorrupt, key, err)
	}
	return m, nil
}

// PutJSON stores a JSON record under (namespace, key) — the store form
// of the serve registry's topology registrations and prior states.
func (s *Store) PutJSON(ns, key string, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		s.writeErrors.Add(1)
		return fmt.Errorf("store: put %s/%s: marshal: %w", ns, key, err)
	}
	return s.put(ns, key, kindJSON, payload)
}

// GetJSON loads the JSON record stored under (namespace, key) into v.
func (s *Store) GetJSON(ns, key string, v any) error {
	payload, err := s.get(ns, key, kindJSON)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(payload, v); err != nil {
		s.corrupt.Add(1)
		s.hits.Add(-1)
		return fmt.Errorf("%w: %s/%s: %v", ErrCorrupt, ns, key, err)
	}
	return nil
}

// EachJSON calls fn with the raw payload of every valid JSON record in
// a namespace, in deterministic (file name) order — the warm-restart
// walk. Damaged records are skipped (and counted) rather than failing
// the walk: a warm restart should recover every readable registration,
// not abort on the first bad one. fn errors abort the walk.
func (s *Store) EachJSON(ns string, fn func(payload []byte) error) error {
	dir := filepath.Join(s.dir, ns)
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil // namespace never written: nothing to walk
		}
		return fmt.Errorf("store: walk %s: %w", ns, err)
	}
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".blob") {
			continue // temp files mid-publish, stray artifacts
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			s.corrupt.Add(1)
			continue
		}
		payload, err := unframe(kindJSON, data)
		if err != nil {
			s.corrupt.Add(1)
			continue
		}
		s.hits.Add(1)
		if err := fn(payload); err != nil {
			return err
		}
	}
	return nil
}
