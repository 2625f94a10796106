// Package serve is the online estimation engine behind cmd/icserve: the
// long-lived subsystem that turns the batch reproduction into a service.
// An Engine is a resource registry plus an execution core: clients
// register topologies under client-chosen keys and calibration state as
// server-issued prior handles (validated once, at registration), then
// open estimation sessions that reference those handles. Solvers live
// in a topology-keyed LRU pool — lazily constructed, once per distinct
// canonical descriptor — and unbounded streams of timestamped link-load
// bins map to traffic-matrix estimates through the deterministic
// streaming worker pool, with bounded backpressure toward the producer
// and per-bin diagnostics aggregated into service-lifetime telemetry.
// The v1 inline path (spec and prior state shipped on every request)
// survives as a shim over the same pool, byte-compatible with PR 4.
//
// With a shared artifact store attached (WithStore), the per-process
// pools become a read-through cache over a disk-backed key→blob map:
// solver-pool misses check the store for a serialized routing matrix
// before paying routing.Build, registrations write through, and
// registry misses fall back to the store's registration records — so N
// stateless engines (replicas sharing one directory, or successive
// lives of one restarted process) see each other's registrations and
// warm artifacts. The store is purely an accelerator and never an
// arbiter of correctness: every artifact is a deterministic function of
// its key, corruption reads as a miss that rebuilds (and overwrites),
// and write failures leave the in-memory artifact authoritative.
//
// Determinism: estimation of one bin is a pure function of (topology,
// prior state, options, bin), solvers are read-only after construction,
// and the pipeline reassembles results in submission order — so the
// estimate stream is bit-identical for any worker count. An estimate
// served over HTTP equals Estimator.EstimateBin run in-process on the
// same inputs, byte for byte; cmd/icserve's end-to-end tests enforce
// this.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"ictm/internal/estimation"
	"ictm/internal/parallel"
	"ictm/internal/routing"
	"ictm/internal/store"
	"ictm/internal/topology"
)

// ErrStream reports an invalid stream specification or registration
// payload: the client's fault, mapped to 400 over HTTP.
var ErrStream = errors.New("serve: invalid stream")

// ErrNotFound reports a reference to a topology key or prior handle
// that is not registered (or was evicted): mapped to 404 over HTTP.
var ErrNotFound = errors.New("serve: unknown resource")

// ErrConflict reports a registration that collides with an existing
// resource under the same key but different content: mapped to 409.
var ErrConflict = errors.New("serve: conflicting registration")

// ErrDraining reports that the engine is shutting down and refuses new
// work: mapped to 503 so load balancers retry elsewhere.
var ErrDraining = errors.New("serve: draining")

// ErrBadBin reports a structurally invalid load vector in a single-shot
// request — wrong length, a NaN or ±Inf entry, or an out-of-range
// Missing index — rejected at the decode boundary and mapped to 400.
// (On streaming paths the same defects stay in-band per-bin errors: the
// response status is committed before the bad line arrives.)
var ErrBadBin = errors.New("serve: invalid bin")

// defaultBuffer is the per-stream backpressure allowance beyond the
// worker count: how many completed-but-unconsumed bins a stream may
// accumulate before its producer blocks.
const defaultBuffer = 16

// defaultMaxTopologies bounds both the solver pool and the registered
// topology namespace: clients control the descriptors they send, so
// without a cap a long-lived server accumulates one routing matrix +
// solver (O(n²) memory each) per distinct spec forever. Beyond the cap
// the least-recently-used entry is evicted; a re-requested pool entry
// rebuilds deterministically, so pool eviction costs latency, never
// correctness, while an evicted registration must be re-registered
// (clients see ErrNotFound, the documented lifecycle).
const defaultMaxTopologies = 64

// defaultMaxPriors bounds the registered-prior registry (fanout state is
// O(n²) per handle). LRU eviction beyond the cap, like the solver pool.
const defaultMaxPriors = 256

// Bin is one timestamped link-load observation: the load vector y in
// the routing row layout (internal links, then ingress, then egress
// rows), observed at bin index T. T drives the priors' time dependence
// and is echoed back on the estimate.
type Bin struct {
	T int       `json:"t"`
	Y []float64 `json:"y"`
	// Missing lists internal-link rows whose counters went unreported
	// this bin (JSON cannot carry NaN, so absence travels as indices).
	// The engine masks those equations out of the solve and flags the
	// bin's estimate Degraded instead of failing it. Indices must lie in
	// [0, L); marginal rows cannot be missing.
	Missing []int `json:"missing,omitempty"`
}

// SessionSpec fixes an estimation session's context by reference: a
// registered topology key, a registered prior handle, and the pipeline
// toggles. It is the register-once counterpart of the v1 StreamSpec —
// resources are validated at registration, so opening a session is a
// pair of registry lookups.
type SessionSpec struct {
	// Topology is the client-chosen key the topology was registered
	// under (RegisterTopology).
	Topology string `json:"topology"`
	// Prior is the server-issued handle of the registered calibration
	// state (RegisterPrior).
	Prior string `json:"prior"`
	// Weighted selects the prior-weighted tomogravity projection.
	Weighted bool `json:"weighted,omitempty"`
	// SkipIPF disables the marginal-fitting step 3.
	SkipIPF bool `json:"skip_ipf,omitempty"`
}

// StreamSpec fixes the per-stream estimation context of the v1 inline
// protocol: the full topology descriptor and serialized prior state are
// re-sent (and re-validated) on every call. New clients should register
// the topology and prior once (RegisterTopology, RegisterPrior) and
// open sessions by handle with a SessionSpec; the inline path remains a
// supported compatibility surface for the v1 wire protocol.
type StreamSpec struct {
	// Topology describes the routing substrate. Streams naming the same
	// descriptor share one lazily-built solver.
	Topology topology.Spec `json:"topology"`
	// Prior is the serialized calibration state (estimation.PriorState).
	Prior estimation.PriorState `json:"prior"`
	// Weighted selects the prior-weighted tomogravity projection.
	Weighted bool `json:"weighted,omitempty"`
	// SkipIPF disables the marginal-fitting step 3.
	SkipIPF bool `json:"skip_ipf,omitempty"`
}

// Estimate is the outcome of one bin. Exactly one of Estimate/Error is
// populated: a bad bin reports in-band and the stream continues.
type Estimate struct {
	// T echoes the bin index.
	T int `json:"t"`
	// N is the node count; Estimate is the row-major n×n TM estimate.
	N        int       `json:"n,omitempty"`
	Estimate []float64 `json:"estimate,omitempty"`
	// Diag carries the bin's non-fatal pipeline diagnostics.
	Diag estimation.BinDiag `json:"diag"`
	// Error reports a per-bin failure (malformed load vector, prior
	// breakdown); the stream keeps serving subsequent bins.
	Error string `json:"error,omitempty"`
}

// TopologyInfo describes one registered topology for the listing API.
type TopologyInfo struct {
	// Key is the client-chosen registration key (or the server-derived
	// key for patched topologies).
	Key string `json:"key"`
	// N is the node count of the built topology.
	N int `json:"n"`
	// Spec is the registered descriptor.
	Spec topology.Spec `json:"spec"`
	// Priors counts the prior handles registered against this topology.
	Priors int `json:"priors"`
	// Version counts the topology's mutation depth: 0 for a directly
	// registered topology, base's version + 1 for one derived by
	// PatchTopology. Omitted from the wire at 0, keeping pre-patch
	// listing bytes unchanged.
	Version int `json:"version,omitempty"`
	// Base is the key the topology was patched from (empty for directly
	// registered topologies).
	Base string `json:"base,omitempty"`
}

// PatchResult is the outcome of PatchTopology: the derived topology's
// server-issued key and lineage.
type PatchResult struct {
	// Base echoes the patched topology's key.
	Base string `json:"base"`
	// Key is the derived topology's key — deterministic over the mutated
	// graph, so any delta history reaching the same topology yields the
	// same key.
	Key string `json:"key"`
	// N is the node count (deltas mutate links, never nodes).
	N int `json:"n"`
	// Version is the derived topology's mutation depth (base's + 1).
	Version int `json:"version"`
}

// Stats is a snapshot of the engine's service-lifetime telemetry: the
// streaming aggregate of the per-bin BinDiag diagnostics plus serving
// counters.
type Stats struct {
	// Workers is the engine's per-stream worker bound.
	Workers int `json:"workers"`
	// Topologies is the number of routing substrates currently pooled;
	// TopologiesEvicted counts pool entries dropped by the LRU bound.
	Topologies        int   `json:"topologies"`
	TopologiesEvicted int64 `json:"topologies_evicted"`
	// RegisteredTopologies and RegisteredPriors count the live entries
	// of the v2 resource registry; RegistrationsEvicted counts registry
	// entries (topologies with their cascaded priors, and priors) that
	// the LRU bounds dropped.
	RegisteredTopologies int   `json:"registered_topologies"`
	RegisteredPriors     int   `json:"registered_priors"`
	RegistrationsEvicted int64 `json:"registrations_evicted"`
	// Draining is true once Drain was called: new sessions and
	// registrations are refused while in-flight streams finish.
	Draining bool `json:"draining"`
	// Streams counts estimation streams opened (batches included).
	Streams int64 `json:"streams"`
	// Bins counts bins estimated, BinErrors those that failed in-band.
	Bins      int64 `json:"bins"`
	BinErrors int64 `json:"bin_errors"`
	// IPFNonConverged and ProjectStalls aggregate the corresponding
	// BinDiag flags (see estimation.RunStats for their operational
	// meaning).
	IPFNonConverged int64 `json:"ipf_non_converged"`
	ProjectStalls   int64 `json:"project_stalls"`
	// LSQRIterations sums the LSQR iterations consumed across all served
	// bins (BinDiag.LSQRIterations): the service's total iterative-solver
	// work. Divided by Bins it is NOT the mean iterations-to-converge:
	// errored and prior-fallback bins run no iterative solve and add 0
	// while counting in Bins. Divide by Bins − BinErrors − PriorFallbacks,
	// the bins that ran one, for the mean — the early-warning signal for
	// a patched topology whose routing system turned ill-conditioned.
	LSQRIterations int64 `json:"lsqr_iterations"`
	// DegradedBins counts bins estimated under a row mask (missing link
	// reports), LinksDropped the equations those bins lost in total, and
	// PriorFallbacks the bins so under-observed the projection was
	// skipped for the prior — the service-wide view of telemetry health.
	DegradedBins   int64 `json:"degraded_bins"`
	LinksDropped   int64 `json:"links_dropped"`
	PriorFallbacks int64 `json:"prior_fallbacks"`
	// Panics and RequestsShed are filled by the HTTP layer: handler
	// panics recovered to 500s, and requests refused 503 by the bounded
	// in-flight admission gate.
	Panics       int64 `json:"panics"`
	RequestsShed int64 `json:"requests_shed"`
	// RoutingBuilds counts the full routing.Build constructions this
	// process performed — the dominant cold-start cost the shared
	// artifact store exists to avoid. A warm-restarted replica serving
	// registered sessions from stored matrices holds it at zero.
	RoutingBuilds int64 `json:"routing_builds"`
	// Store* surface this process's artifact-store traffic (all zero
	// without an attached store): blob-read hits and misses, corrupt
	// blobs encountered (each handled as a rebuild-and-overwrite miss),
	// and write-through successes and failures.
	StoreHits        int64 `json:"store_hits"`
	StoreMisses      int64 `json:"store_misses"`
	StoreCorrupt     int64 `json:"store_corrupt"`
	StoreWrites      int64 `json:"store_writes"`
	StoreWriteErrors int64 `json:"store_write_errors"`
}

// Engine is the shared, long-lived estimation core. It is safe for
// concurrent use: estimator construction is once-guarded per topology
// key, estimators are read-only afterwards, the solver pool and both
// registries are guarded by one mutex, and the bin telemetry by another.
type Engine struct {
	workers int
	buffer  int
	// maxTopologies bounds the solver pool and the topology registry;
	// maxPriors bounds the prior registry (LRU eviction beyond each).
	maxTopologies int
	maxPriors     int

	// store is the optional shared artifact store (WithStore): the
	// solver pool and registry read through it, registrations write
	// through it. nil keeps the engine purely in-memory.
	store *store.Store

	mu      sync.Mutex
	solvers lru[*solverEntry] // canonical spec key → pooled estimator
	topos   lru[*topoEntry]   // client key → registered topology
	priors  lru[*priorEntry]  // server handle → registered prior
	tick    int64             // monotonic use counter driving the LRU orders
	evicted int64             // solver-pool evictions
	regEvic int64             // registry evictions (topologies + priors)

	builds   atomic.Int64 // routing.Build constructions paid by this process
	draining atomic.Bool
	streams  atomic.Int64

	// binsMu guards the delivered bins' telemetry: run aggregates the
	// BinDiag of every bin estimated, binErrors counts the bins that
	// failed in-band (Stats' Bins counts both).
	binsMu    sync.Mutex
	run       estimation.RunStats
	binErrors int64
}

// solverEntry is one topology's lazily-built estimation session. The
// once guards graph + routing + estimator construction: the first
// stream naming a topology pays the O(nnz) build,
// every later stream shares the result, and a failed build is cached as
// its error.
type solverEntry struct {
	once sync.Once
	g    *topology.Graph
	rm   *routing.Matrix
	est  *estimation.Estimator
	err  error
}

// warmEntry is a solver entry built outside the pool's lazy path (a
// patched topology, a warm start) with its once already burnt.
func warmEntry(g *topology.Graph, rm *routing.Matrix, est *estimation.Estimator) *solverEntry {
	ent := &solverEntry{g: g, rm: rm, est: est}
	ent.once.Do(func() {})
	return ent
}

// topoEntry is one registered topology: the client key maps to the
// descriptor whose canonical form keys the solver pool.
type topoEntry struct {
	spec topology.Spec
	// canonical is spec.Key(): registrations conflict only when the same
	// client key names a different canonical topology.
	canonical string
	n         int
	// version and base record mutation lineage for topologies derived by
	// PatchTopology: version is the mutation depth (0 for direct
	// registrations), base the key the delta was applied to.
	version int
	base    string
}

// priorEntry is one registered prior: validated calibration state bound
// to the topology it was registered against.
type priorEntry struct {
	topoKey string
	state   []byte // canonical JSON of the PriorState, for idempotence
	prior   estimation.Prior
}

// lru is a map bounded by least-recently-used eviction: the one eviction
// policy of the solver pool and both registries. Each use stamps an
// entry with the engine's tick; inserting into a full map evicts the
// entry with the oldest stamp, ties broken by the smaller key, so the
// evicted entry is a function of the contents, not of Go's randomized
// map order. Callers hold the engine mutex.
type lru[V any] struct {
	m map[string]lruSlot[V]
}

// lruSlot is one lru entry with the tick of its last use.
type lruSlot[V any] struct {
	v    V
	used int64
}

func newLRU[V any]() lru[V] { return lru[V]{m: make(map[string]lruSlot[V])} }

// peek returns the entry under key without marking it used.
func (c *lru[V]) peek(key string) (V, bool) {
	s, ok := c.m[key]
	return s.v, ok
}

// get returns the entry under key, marking it used at tick.
func (c *lru[V]) get(key string, tick int64) (V, bool) {
	s, ok := c.m[key]
	if ok {
		s.used = tick
		c.m[key] = s
	}
	return s.v, ok
}

// add inserts v under an absent key, used at tick, first evicting the
// least-recently-used entry if the map already holds bound entries. It
// returns the evicted key, and whether there was one.
func (c *lru[V]) add(key string, v V, tick int64, bound int) (evicted string, ok bool) {
	if len(c.m) >= bound {
		var oldest int64
		for k, s := range c.m {
			if !ok || s.used < oldest || (s.used == oldest && k < evicted) {
				evicted, oldest, ok = k, s.used, true
			}
		}
		delete(c.m, evicted)
	}
	c.m[key] = lruSlot[V]{v: v, used: tick}
	return evicted, ok
}

// EngineOption configures optional engine subsystems at construction.
type EngineOption func(*Engine)

// WithStore attaches a shared disk-backed artifact store. The solver
// pool reads through it — a stored routing matrix replaces the
// routing.Build on a pool miss — registrations (topologies, priors,
// patched topologies) write through it, and registry misses fall back
// to its registration records, so engines in different processes
// pointed at one directory share registrations and warm artifacts.
// Store failures never fail serving: a corrupt blob reads as a miss
// and is rebuilt and overwritten, and a failed write leaves the
// in-memory artifact authoritative (both surface in Stats).
func WithStore(st *store.Store) EngineOption {
	return func(e *Engine) { e.store = st }
}

// Store namespaces of the engine's registration records (the matrix
// namespace is store.NSMatrices, keyed by canonical topology key).
const (
	nsTopologies = "topologies"
	nsPriors     = "priors"
)

// topologyRecord is the store form of one topology registration: what
// a replica needs to resolve a client key it has never seen — the
// descriptor (whose canonical form keys the matrix blob), the node
// count, and the mutation lineage.
type topologyRecord struct {
	Key     string        `json:"key"`
	Spec    topology.Spec `json:"spec"`
	N       int           `json:"n"`
	Version int           `json:"version,omitempty"`
	Base    string        `json:"base,omitempty"`
}

// entry is the registry entry a stored topology record describes.
func (rec topologyRecord) entry() *topoEntry {
	return &topoEntry{
		spec: rec.Spec, canonical: rec.Spec.Key(), n: rec.N,
		version: rec.Version, base: rec.Base,
	}
}

// priorRecord is the store form of one prior registration: the owning
// topology key and the canonical state JSON the handle was hashed
// over, so any replica re-validates and re-instantiates the identical
// prior.
type priorRecord struct {
	Handle   string          `json:"handle"`
	Topology string          `json:"topology"`
	State    json.RawMessage `json:"state"`
}

// NewEngine returns an engine whose streams estimate bins with at most
// Resolve(workers) concurrent workers each (0 = GOMAXPROCS, 1 = strictly
// sequential; results are identical for every value).
func NewEngine(workers int, opts ...EngineOption) *Engine {
	e := &Engine{
		workers:       workers,
		buffer:        defaultBuffer,
		maxTopologies: defaultMaxTopologies,
		maxPriors:     defaultMaxPriors,
		solvers:       newLRU[*solverEntry](),
		topos:         newLRU[*topoEntry](),
		priors:        newLRU[*priorEntry](),
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Drain switches the engine into shutdown mode: every subsequent
// registration and session open fails with ErrDraining while streams
// already open keep serving. Draining is one-way.
func (e *Engine) Drain() { e.draining.Store(true) }

// checkAccepting returns ErrDraining once Drain was called.
func (e *Engine) checkAccepting() error {
	if e.draining.Load() {
		return ErrDraining
	}
	return nil
}

// entryFor returns the pooled solver entry for a topology descriptor,
// building it on first use. The pool is LRU-bounded: inserting beyond
// maxTopologies evicts the least-recently-used entry (failed builds
// included, so an attacker cannot pin the pool with broken specs).
// Streams hold direct estimator references, so evicting an entry never
// invalidates work in flight — the next lookup just rebuilds.
func (e *Engine) entryFor(spec topology.Spec) (*solverEntry, error) {
	key := spec.Key()
	e.mu.Lock()
	e.tick++
	ent, ok := e.solvers.get(key, e.tick)
	if !ok {
		ent, _ = e.adoptSolverLocked(key, &solverEntry{})
	}
	e.mu.Unlock()
	ent.once.Do(func() {
		g, err := spec.Build()
		if err != nil {
			ent.err = fmt.Errorf("serve: build topology: %w", err)
			return
		}
		// Read-through: a stored matrix (written by any replica, or by a
		// previous life of this process) replaces the expensive Build —
		// bitwise identical by the codec contract, so estimates cannot
		// depend on which replica built the artifact.
		rm := e.storedMatrix(spec.Key(), g)
		if rm == nil {
			rm, err = routing.Build(g)
			if err != nil {
				ent.err = fmt.Errorf("serve: build routing: %w", err)
				return
			}
			e.builds.Add(1)
			if e.store != nil {
				// Best-effort write-through: a failure (counted by the
				// store) costs other replicas a rebuild, never correctness.
				_ = e.store.PutMatrix(spec.Key(), rm)
			}
		}
		est, err := estimation.NewEstimator(rm)
		if err != nil {
			ent.err = fmt.Errorf("serve: build solver: %w", err)
			return
		}
		ent.g, ent.rm, ent.est = g, rm, est
	})
	return ent, ent.err
}

// storedMatrix is the solver pool's store read-through: the routing
// matrix blobbed under a canonical topology key, validated against the
// graph it must describe. nil on every failure — no store attached,
// miss, corruption (the bad blob will be overwritten by the rebuild's
// write-through), or a layout mismatch from a stale blob — after which
// the caller falls back to routing.Build.
func (e *Engine) storedMatrix(key string, g *topology.Graph) *routing.Matrix {
	if e.store == nil {
		return nil
	}
	rm, err := e.store.GetMatrix(key)
	if err != nil || rm.N != g.N() || rm.L != g.NumEdges() {
		return nil
	}
	return rm
}

// adoptSolverLocked returns the pool entry under key, marked used at the
// current tick, or inserts ent there (evicting the LRU entry beyond the
// bound); added reports which. Caller holds e.mu.
func (e *Engine) adoptSolverLocked(key string, ent *solverEntry) (_ *solverEntry, added bool) {
	if cur, ok := e.solvers.get(key, e.tick); ok {
		return cur, false
	}
	if _, ok := e.solvers.add(key, ent, e.tick, e.maxTopologies); ok {
		e.evicted++
	}
	return ent, true
}

// adoptTopoLocked is adoptSolverLocked for the topology registry. An
// eviction cascades to the evicted topology's priors: a dangling prior
// handle could otherwise reference a key that no longer resolves.
func (e *Engine) adoptTopoLocked(key string, ent *topoEntry) (_ *topoEntry, added bool) {
	if cur, ok := e.topos.get(key, e.tick); ok {
		return cur, false
	}
	if old, ok := e.topos.add(key, ent, e.tick, e.maxTopologies); ok {
		e.regEvic++
		for h, p := range e.priors.m {
			if p.v.topoKey == old {
				delete(e.priors.m, h)
				e.regEvic++
			}
		}
	}
	return ent, true
}

// adoptPriorLocked is adoptSolverLocked for the prior registry.
func (e *Engine) adoptPriorLocked(handle string, p *priorEntry) (_ *priorEntry, added bool) {
	if cur, ok := e.priors.get(handle, e.tick); ok {
		return cur, false
	}
	if _, ok := e.priors.add(handle, p, e.tick, e.maxPriors); ok {
		e.regEvic++
	}
	return p, true
}

// RegisterTopology validates and registers a topology descriptor under
// a client-chosen key, eagerly building (and pooling) its solver so a
// malformed spec fails here, not inside the first session. Registration
// is idempotent: re-registering the same canonical topology under the
// same key succeeds with created=false; a key collision with a
// different topology fails with ErrConflict. Beyond the registry bound
// the least-recently-used registration (and its priors) is evicted.
// n reports the registered topology's node count.
func (e *Engine) RegisterTopology(key string, spec topology.Spec) (n int, created bool, err error) {
	if err := e.checkAccepting(); err != nil {
		return 0, false, err
	}
	if key == "" {
		return 0, false, fmt.Errorf("%w: empty topology key", ErrStream)
	}
	canonical := spec.Key()

	// Idempotence and conflict detection see through the store: a key
	// registered by another replica conflicts (or matches) exactly as a
	// local one would.
	ent, ok := e.lookupTopo(key)
	if !ok {
		// Validate outside the lock: the build takes ~0.1 s at n=100 and
		// the pool entry's once already serializes concurrent builders of
		// one spec.
		sol, err := e.entryFor(spec)
		if err != nil {
			return 0, false, fmt.Errorf("%w: %v", ErrStream, err)
		}
		e.mu.Lock()
		e.tick++
		// A registration that raced ahead of this one is adopted here and
		// checked like a lookup hit.
		ent, created = e.adoptTopoLocked(key, &topoEntry{spec: spec, canonical: canonical, n: sol.rm.N})
		e.mu.Unlock()
	}
	if ent.canonical != canonical {
		return 0, false, fmt.Errorf("%w: topology key %q already registered with a different spec", ErrConflict, key)
	}
	if created {
		e.putTopoRecord(key, ent)
	}
	return ent.n, created, nil
}

// derivedTopoKey issues the server-side key of a patched topology: a
// short content hash of the mutated graph's canonical descriptor. The
// explicit edge list itself is the canonical form, but it is far too
// long for a URL path segment, so the key is its digest — equal mutated
// graphs get equal keys no matter which delta history produced them.
func derivedTopoKey(canonical string) string {
	sum := sha256.Sum256([]byte(canonical))
	return "tp-" + hex.EncodeToString(sum[:])[:12]
}

// PatchTopology applies a topology delta to a registered topology and
// registers the result under a server-derived key, returning the new
// key with its lineage. The mutation is incremental end to end: the
// base's pooled routing matrix is patched (routing.Patch — bitwise
// identical to a rebuild), the base's estimator is rebased onto it
// (estimation.Rebase), and the result enters the solver pool warm, so
// the first session against the derived key pays no build. The base's
// registered priors are carried to the derived key (deltas never change
// n, so the validated instances remain correct) under their
// deterministic re-derived handles.
//
// Patching is idempotent the same way registration is: re-applying a
// delta (or any delta history converging on the same topology) resolves
// to the same derived key, and carries any prior the base gained since
// the derived key was first registered. Unknown base keys fail with ErrNotFound,
// invalid deltas (including ones that disconnect the graph) with
// ErrStream.
func (e *Engine) PatchTopology(key string, delta topology.Delta) (PatchResult, error) {
	if err := e.checkAccepting(); err != nil {
		return PatchResult{}, err
	}
	ent, ok := e.lookupTopo(key)
	if !ok {
		return PatchResult{}, fmt.Errorf("%w: topology key %q", ErrNotFound, key)
	}
	spec := ent.spec
	version := ent.version

	// Patch outside the lock: the heavy work (shortest-path repair,
	// touched-pair recomputation and the CSR merge) must not serialize
	// the registry.
	base, err := e.entryFor(spec)
	if err != nil {
		return PatchResult{}, fmt.Errorf("%w: %v", ErrStream, err)
	}
	pm, ng, err := routing.Patch(base.rm, base.g, delta)
	if err != nil {
		return PatchResult{}, fmt.Errorf("%w: %v", ErrStream, err)
	}
	rebased, err := base.est.Rebase(pm)
	if err != nil {
		return PatchResult{}, fmt.Errorf("%w: %v", ErrStream, err)
	}
	derivedSpec := topology.GraphSpec(ng)
	canonical := derivedSpec.Key()
	derivedKey := derivedTopoKey(canonical)

	// One tick for every insert below, so the carried priors tie on use
	// and a later eviction among them goes by handle.
	e.mu.Lock()
	e.tick++
	// Keep the patched estimator warm: the first session against the
	// derived key must not rebuild from scratch.
	e.adoptSolverLocked(canonical, warmEntry(ng, pm, rebased))
	dent, created := e.adoptTopoLocked(derivedKey, &topoEntry{
		spec: derivedSpec, canonical: canonical, n: ng.N(), version: version + 1, base: key,
	})
	if dent.canonical != canonical {
		e.mu.Unlock()
		return PatchResult{}, fmt.Errorf("%w: derived topology key %q already registered with a different spec", ErrConflict, derivedKey)
	}
	// Carry the base's priors, on a repeated patch too (the base may have
	// gained priors since): same n, so the validated instances stay
	// correct — only the owning key (and therefore the handle) changes.
	// Collect first, then insert in canonical-state order, so the inserts
	// (and any evictions they trigger) do not follow Go's randomized map
	// order — state bytes are unique per prior of one topology, since the
	// handle is their hash.
	var carry []*priorEntry
	for _, p := range e.priors.m {
		if p.v.topoKey == key {
			carry = append(carry, p.v)
		}
	}
	sort.Slice(carry, func(i, j int) bool {
		return bytes.Compare(carry[i].state, carry[j].state) < 0
	})
	carried := make(map[string]*priorEntry)
	for _, p := range carry {
		h := priorHandle(derivedKey, p.state)
		if np, added := e.adoptPriorLocked(h, &priorEntry{topoKey: derivedKey, state: p.state, prior: p.prior}); added {
			carried[h] = np
		}
	}
	e.mu.Unlock()

	// Write-through after the registry settles: the derived topology's
	// matrix (already computed incrementally, bitwise equal to a full
	// rebuild), its registration record, and the newly carried priors —
	// so a replica sharing the store resolves the derived key and its
	// handles without replaying the delta.
	if created {
		if e.store != nil {
			_ = e.store.PutMatrix(canonical, pm)
		}
		e.putTopoRecord(derivedKey, dent)
	}
	for h, p := range carried {
		e.putPriorRecord(h, p)
	}
	return PatchResult{Base: key, Key: derivedKey, N: ng.N(), Version: dent.version}, nil
}

// lookupTopo resolves a registered topology by client key, falling back
// to the store's registration record on a registry miss — another
// replica's registration, a previous life of this process, or an entry
// the LRU bound evicted back to disk. Adopted records enter the
// registry under the usual bound. Caller must not hold e.mu; the
// returned entry's immutable fields (spec, canonical, n, version, base)
// are safe to read after return.
func (e *Engine) lookupTopo(key string) (*topoEntry, bool) {
	e.mu.Lock()
	e.tick++
	ent, ok := e.topos.get(key, e.tick)
	e.mu.Unlock()
	if ok || e.store == nil {
		return ent, ok
	}
	var rec topologyRecord
	if err := e.store.GetJSON(nsTopologies, key, &rec); err != nil || rec.Key != key || rec.N <= 0 {
		return nil, false
	}
	ent = rec.entry()

	e.mu.Lock()
	defer e.mu.Unlock()
	e.tick++
	ent, _ = e.adoptTopoLocked(key, ent) // another resolver may have won
	return ent, true
}

// lookupPrior resolves a registered prior by handle, falling back to
// the store's registration record on a registry miss. An adopted record
// is re-validated from scratch — owning topology resolved (possibly
// itself through the store), state re-instantiated against its n, and
// the handle recomputed over the canonical state — so a stale or forged
// blob reads as a miss, never as someone else's calibration. Caller
// must not hold e.mu.
func (e *Engine) lookupPrior(handle string) (*priorEntry, bool) {
	e.mu.Lock()
	e.tick++
	p, ok := e.priors.get(handle, e.tick)
	e.mu.Unlock()
	if ok || e.store == nil {
		return p, ok
	}
	var rec priorRecord
	if err := e.store.GetJSON(nsPriors, handle, &rec); err != nil || rec.Handle != handle {
		return nil, false
	}
	topo, ok := e.lookupTopo(rec.Topology)
	if !ok {
		return nil, false
	}
	return e.adoptPriorRecord(rec, topo)
}

// adoptPriorRecord re-validates a stored prior record against its
// resolved owning topology — state re-instantiated against its n, the
// handle recomputed over the canonical state — and adopts it into the
// prior registry. Caller must not hold e.mu.
func (e *Engine) adoptPriorRecord(rec priorRecord, topo *topoEntry) (*priorEntry, bool) {
	var state estimation.PriorState
	if err := json.Unmarshal(rec.State, &state); err != nil {
		return nil, false
	}
	prior, err := state.Prior(topo.n)
	if err != nil {
		return nil, false
	}
	canonical, err := json.Marshal(state)
	if err != nil {
		return nil, false
	}
	if priorHandle(rec.Topology, canonical) != rec.Handle {
		return nil, false
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	e.tick++
	p, _ := e.adoptPriorLocked(rec.Handle, &priorEntry{topoKey: rec.Topology, state: canonical, prior: prior}) // another resolver may have won
	return p, true
}

// putTopoRecord and putPriorRecord write one registration through to
// the store, best-effort: failures are counted by the store and cost
// other replicas a registry miss, never correctness. Callers must not
// hold e.mu (disk IO); entry fields are immutable, so reading them
// unlocked is safe.
func (e *Engine) putTopoRecord(key string, ent *topoEntry) {
	if e.store == nil {
		return
	}
	_ = e.store.PutJSON(nsTopologies, key, topologyRecord{
		Key: key, Spec: ent.spec, N: ent.n, Version: ent.version, Base: ent.base,
	})
}

func (e *Engine) putPriorRecord(handle string, p *priorEntry) {
	if e.store == nil {
		return
	}
	_ = e.store.PutJSON(nsPriors, handle, priorRecord{
		Handle: handle, Topology: p.topoKey, State: p.state,
	})
}

// priorHandle derives the deterministic server handle of a prior
// registration: a short content hash over the owning topology key and
// the canonical state JSON, so re-registering identical state yields
// the same handle (idempotent) regardless of registration order.
func priorHandle(topoKey string, state []byte) string {
	h := sha256.New()
	h.Write([]byte(topoKey))
	h.Write([]byte{0})
	h.Write(state)
	return "pr-" + hex.EncodeToString(h.Sum(nil))[:12]
}

// RegisterPrior validates serialized calibration state against a
// registered topology's network size and stores it under a
// server-issued handle. Registration is idempotent: identical state
// against the same topology returns the same handle with created=false.
// Unknown topology keys fail with ErrNotFound, malformed state with
// ErrStream. Beyond the registry bound the least-recently-used prior is
// evicted.
func (e *Engine) RegisterPrior(topoKey string, state estimation.PriorState) (handle string, created bool, err error) {
	if err := e.checkAccepting(); err != nil {
		return "", false, err
	}
	ent, ok := e.lookupTopo(topoKey)
	if !ok {
		return "", false, fmt.Errorf("%w: topology key %q", ErrNotFound, topoKey)
	}
	n := ent.n

	prior, err := state.Prior(n)
	if err != nil {
		return "", false, fmt.Errorf("%w: prior: %v", ErrStream, err)
	}
	canonical, err := json.Marshal(state)
	if err != nil {
		return "", false, fmt.Errorf("%w: prior: %v", ErrStream, err)
	}
	handle = priorHandle(topoKey, canonical)

	// The handle is a truncated content hash: confirm an existing
	// registration (local or another replica's, via the store) really is
	// this one before calling it idempotent, so a hash collision surfaces
	// as a conflict instead of silently serving another client's
	// calibration state.
	p, ok := e.lookupPrior(handle)
	if !ok {
		e.mu.Lock()
		// The topology was validated before the lock was taken;
		// concurrent registrations may have evicted (and a future client
		// could re-register) the key meanwhile. Re-check under the lock so
		// a prior validated against a stale n can never land.
		if ent, ok := e.topos.peek(topoKey); !ok || ent.n != n {
			e.mu.Unlock()
			return "", false, fmt.Errorf("%w: topology key %q", ErrNotFound, topoKey)
		}
		e.tick++
		// A registration that raced ahead of this one is adopted here and
		// checked like a lookup hit.
		p, created = e.adoptPriorLocked(handle, &priorEntry{topoKey: topoKey, state: canonical, prior: prior})
		e.mu.Unlock()
	}
	if p.topoKey != topoKey || !bytes.Equal(p.state, canonical) {
		return "", false, fmt.Errorf("%w: prior handle %q already registered with different state", ErrConflict, handle)
	}
	if created {
		e.putPriorRecord(handle, p)
	}
	return handle, created, nil
}

// Topologies lists the registered topologies (not the anonymous pool
// entries the v1 inline path creates), sorted by key: listing output
// is deterministic at the source instead of relying on every caller
// to re-sort Go's randomized map order.
func (e *Engine) Topologies() []TopologyInfo {
	e.mu.Lock()
	defer e.mu.Unlock()
	keys := make([]string, 0, len(e.topos.m))
	for key := range e.topos.m {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	out := make([]TopologyInfo, 0, len(keys))
	for _, key := range keys {
		out = append(out, e.topologyInfoLocked(key))
	}
	return out
}

// topologyInfoLocked assembles one registered topology's listing entry.
// Caller holds e.mu and guarantees the key exists.
func (e *Engine) topologyInfoLocked(key string) TopologyInfo {
	ent, _ := e.topos.peek(key)
	info := TopologyInfo{Key: key, N: ent.n, Spec: ent.spec, Version: ent.version, Base: ent.base}
	for _, p := range e.priors.m {
		if p.v.topoKey == key {
			info.Priors++
		}
	}
	return info
}

// Topology returns one registered topology's listing entry, failing
// with ErrNotFound for unknown (or evicted) keys.
func (e *Engine) Topology(key string) (TopologyInfo, error) {
	if _, ok := e.lookupTopo(key); !ok {
		return TopologyInfo{}, fmt.Errorf("%w: topology key %q", ErrNotFound, key)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.topos.peek(key); !ok { // evicted between lookup and lock
		return TopologyInfo{}, fmt.Errorf("%w: topology key %q", ErrNotFound, key)
	}
	return e.topologyInfoLocked(key), nil
}

// resolveSession maps a SessionSpec's handles to the live resources:
// the registered topology's pooled estimator and the registered prior.
func (e *Engine) resolveSession(s SessionSpec) (*estimation.Estimator, *routing.Matrix, estimation.Prior, error) {
	ent, ok := e.lookupTopo(s.Topology)
	if !ok {
		return nil, nil, nil, fmt.Errorf("%w: topology key %q", ErrNotFound, s.Topology)
	}
	p, ok := e.lookupPrior(s.Prior)
	if !ok {
		return nil, nil, nil, fmt.Errorf("%w: prior handle %q", ErrNotFound, s.Prior)
	}
	if p.topoKey != s.Topology {
		return nil, nil, nil, fmt.Errorf("%w: prior handle %q is registered for topology %q, not %q",
			ErrNotFound, s.Prior, p.topoKey, s.Topology)
	}
	sol, err := e.entryFor(ent.spec)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%w: %v", ErrStream, err)
	}
	return sol.est, sol.rm, p.prior, nil
}

// Stream is one open estimation stream: submit bins, read estimates in
// submission order. Close after the last Submit; Out closes once every
// submitted bin has been delivered.
type Stream struct {
	pipe *parallel.Pipeline[Bin, Estimate]
	out  chan Estimate
}

// Submit hands one observation to the stream, blocking under
// backpressure once workers+buffer bins are in flight.
func (s *Stream) Submit(b Bin) { s.pipe.Submit(b) }

// Close ends the input; in-flight bins drain to Out, which then closes.
func (s *Stream) Close() { s.pipe.Close() }

// Out returns the ordered estimate stream.
func (s *Stream) Out() <-chan Estimate { return s.out }

// Open starts an estimation session over registered resources: the
// topology key and prior handle resolve through the registry (404
// semantics for unknown or mismatched handles) and the pooled estimator
// is derived with the session's pipeline toggles. A per-bin failure is
// reported on that bin's Estimate.Error and the stream keeps serving.
// Cancelling ctx fails bins that have not started yet the same in-band
// way (bins already solving run to completion — a solve is milliseconds
// and its result may already be on the wire).
//
// A worker takes a stream's oldest pending bin and estimates it with
// Estimator.EstimateBin, so every bin's estimate, diagnostics and error
// are those of EstimateBin on its own, for any worker count.
func (e *Engine) Open(ctx context.Context, s SessionSpec) (*Stream, error) {
	if err := e.checkAccepting(); err != nil {
		return nil, err
	}
	est, rm, prior, err := e.resolveSession(s)
	if err != nil {
		return nil, err
	}
	return e.open(ctx, est, rm, prior, s.Weighted, s.SkipIPF), nil
}

// OpenInline validates the v1 inline stream context, lazily builds (or
// reuses) the topology's pooled estimator, and starts the estimation
// pipeline — re-validating the prior state on every call, which is
// exactly the per-request cost the register-once API (Open with a
// SessionSpec) removes. The prior is a fresh instance per request, so
// an ic-stable-fP prior pays its one eq. 8 decomposition (a Jacobi SVD
// of the 2n x n operator, ~50 ms at n=100) on every v1 request, where a
// registered v2 handle pays it once. It remains as the engine face of
// the v1 wire protocol.
func (e *Engine) OpenInline(ctx context.Context, spec StreamSpec) (*Stream, error) {
	if err := e.checkAccepting(); err != nil {
		return nil, err
	}
	sol, err := e.entryFor(spec.Topology)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStream, err)
	}
	prior, err := spec.Prior.Prior(sol.rm.N)
	if err != nil {
		return nil, fmt.Errorf("%w: prior: %v", ErrStream, err)
	}
	return e.open(ctx, sol.est, sol.rm, prior, spec.Weighted, spec.SkipIPF), nil
}

// binObservation turns a wire Bin into the estimator's observation:
// length-checked, Missing indices validated against the link range and
// marked NaN on a copy (the pipeline's in-band missing marker). The Y
// slice itself is never mutated — it may alias a caller's buffer.
func binObservation(b Bin, rm *routing.Matrix) ([]float64, error) {
	if len(b.Y) != rm.Rows() {
		return nil, fmt.Errorf("bin %d: load vector of %d, want %d (L=%d internal links + 2n=%d marginal rows)",
			b.T, len(b.Y), rm.Rows(), rm.L, 2*rm.N)
	}
	if len(b.Missing) == 0 {
		return b.Y, nil
	}
	y := append([]float64(nil), b.Y...)
	for _, i := range b.Missing {
		if i < 0 || i >= rm.L {
			return nil, fmt.Errorf("bin %d: missing index %d out of range (L=%d internal links; marginal rows cannot be missing)",
				b.T, i, rm.L)
		}
		y[i] = math.NaN()
	}
	return y, nil
}

// open starts the estimation pipeline over resolved resources. The
// session estimator is derived from the pooled base so every projection
// runs against the shared read-only solver.
func (e *Engine) open(ctx context.Context, base *estimation.Estimator, rm *routing.Matrix, prior estimation.Prior, weighted, skipIPF bool) *Stream {
	est := base.With(estimation.WithWeighted(weighted), estimation.WithSkipIPF(skipIPF))
	e.streams.Add(1)

	pipe := parallel.NewPipeline(e.workers, e.buffer, func(b Bin) (Estimate, error) {
		if err := ctx.Err(); err != nil {
			return Estimate{T: b.T}, fmt.Errorf("bin %d: %w", b.T, err)
		}
		y, err := binObservation(b, rm)
		if err != nil {
			return Estimate{T: b.T}, err
		}
		x, diag, err := est.EstimateBin(prior, b.T, y)
		if err != nil {
			return Estimate{T: b.T}, err
		}
		return Estimate{T: b.T, N: rm.N, Estimate: x.Vec(), Diag: diag}, nil
	})

	out := make(chan Estimate)
	go func() {
		for r := range pipe.Out() {
			est := r.Value
			e.binsMu.Lock()
			if r.Err != nil {
				est.Error = r.Err.Error()
				e.run.Bins++
				e.binErrors++
			} else {
				e.run.Add(est.Diag)
			}
			e.binsMu.Unlock()
			out <- est
		}
		close(out)
	}()
	return &Stream{pipe: pipe, out: out}
}

// drainBatch collects one stream's ordered output for a bin slice.
func drainBatch(s *Stream, bins []Bin) []Estimate {
	done := make(chan []Estimate)
	go func() {
		out := make([]Estimate, 0, len(bins))
		for est := range s.Out() {
			out = append(out, est)
		}
		done <- out
	}()
	for _, b := range bins {
		s.Submit(b)
	}
	s.Close()
	return <-done
}

// EstimateBatch is the one-shot convenience over Open: estimate a bin
// slice against registered resources and collect the results in order.
func (e *Engine) EstimateBatch(ctx context.Context, s SessionSpec, bins []Bin) ([]Estimate, error) {
	stream, err := e.Open(ctx, s)
	if err != nil {
		return nil, err
	}
	return drainBatch(stream, bins), nil
}

// EstimateBatchInline is the one-shot convenience over OpenInline (the
// v1 compatibility path; new clients register once and use
// EstimateBatch with a SessionSpec).
func (e *Engine) EstimateBatchInline(ctx context.Context, spec StreamSpec, bins []Bin) ([]Estimate, error) {
	stream, err := e.OpenInline(ctx, spec)
	if err != nil {
		return nil, err
	}
	return drainBatch(stream, bins), nil
}

// WarmStart repopulates the registries and the solver pool from the
// attached store: every stored topology registration is adopted, with
// its routing matrix decoded straight into the solver pool, and every
// stored prior record of a restored topology re-validated and
// re-instantiated — so a restarted replica serves all previously
// registered sessions without a single routing.Build. Damaged or stale
// records are skipped (the store counts them as corrupt); registrations
// beyond the LRU bounds stay on disk, where registry read-through finds
// them on demand. Call before serving traffic; it returns the number of
// topologies and priors restored.
func (e *Engine) WarmStart() (topos, priors int, err error) {
	if e.store == nil {
		return 0, 0, errors.New("serve: warm start requires an attached store (WithStore)")
	}
	err = e.store.EachJSON(nsTopologies, func(payload []byte) error {
		var rec topologyRecord
		if err := json.Unmarshal(payload, &rec); err != nil || rec.Key == "" || rec.N <= 0 {
			return nil // checksum-valid but semantically damaged: skip
		}
		ent := rec.entry()
		e.mu.Lock()
		// Once full, leave the remainder on disk instead of thrashing the
		// LRU: lookupTopo loads any of them on first use.
		added := false
		if len(e.topos.m) < e.maxTopologies {
			e.tick++
			_, added = e.adoptTopoLocked(rec.Key, ent)
		}
		e.mu.Unlock()
		if added {
			e.warmSolver(rec.Spec)
			topos++
		}
		return nil
	})
	if err != nil {
		return topos, priors, err
	}
	err = e.store.EachJSON(nsPriors, func(payload []byte) error {
		var rec priorRecord
		if err := json.Unmarshal(payload, &rec); err != nil || rec.Handle == "" {
			return nil
		}
		// Like the topology walk, never evict: restore a prior only under
		// a topology already registered and while the prior registry has
		// room; lookupPrior reads the rest through on first use. The
		// record is validated as lookupPrior validates it, so warm start
		// cannot admit a record that live traffic would reject.
		e.mu.Lock()
		topo, ok := e.topos.peek(rec.Topology)
		full := len(e.priors.m) >= e.maxPriors
		e.mu.Unlock()
		if !ok || full {
			return nil
		}
		if _, ok := e.adoptPriorRecord(rec, topo); ok {
			priors++
		}
		return nil
	})
	return topos, priors, err
}

// warmSolver fills the solver pool entry for a spec from the store
// alone: the graph is rebuilt from the descriptor (cheap and
// deterministic, so its edge order matches the stored matrix), the
// routing matrix decoded from its blob, the estimator constructed over
// it — never a routing.Build. On any miss the pool is left cold for
// entryFor's lazy path. Like WarmStart, it never evicts.
func (e *Engine) warmSolver(spec topology.Spec) {
	key := spec.Key()
	e.mu.Lock()
	_, pooled := e.solvers.peek(key)
	full := len(e.solvers.m) >= e.maxTopologies
	e.mu.Unlock()
	if pooled || full {
		return
	}

	g, err := spec.Build()
	if err != nil {
		return
	}
	rm := e.storedMatrix(key, g)
	if rm == nil {
		return
	}
	est, err := estimation.NewEstimator(rm)
	if err != nil {
		return
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.solvers.m) < e.maxTopologies {
		e.tick++
		e.adoptSolverLocked(key, warmEntry(g, rm, est))
	}
}

// Stats returns a telemetry snapshot.
func (e *Engine) Stats() Stats {
	s := Stats{
		Workers:       parallel.Resolve(e.workers),
		Draining:      e.draining.Load(),
		Streams:       e.streams.Load(),
		RoutingBuilds: e.builds.Load(),
	}
	e.mu.Lock()
	s.Topologies, s.TopologiesEvicted = len(e.solvers.m), e.evicted
	s.RegisteredTopologies, s.RegisteredPriors = len(e.topos.m), len(e.priors.m)
	s.RegistrationsEvicted = e.regEvic
	e.mu.Unlock()
	e.binsMu.Lock()
	run := e.run
	s.Bins, s.BinErrors = int64(run.Bins), e.binErrors
	e.binsMu.Unlock()
	s.IPFNonConverged, s.ProjectStalls = int64(run.IPFNonConverged), int64(run.ProjectStalls)
	s.LSQRIterations, s.DegradedBins = int64(run.LSQRIterationsTotal), int64(run.DegradedBins)
	s.LinksDropped, s.PriorFallbacks = int64(run.LinksDroppedTotal), int64(run.PriorFallbacks)
	if e.store != nil {
		c := e.store.Counters()
		s.StoreHits, s.StoreMisses, s.StoreCorrupt = c.Hits, c.Misses, c.Corrupt
		s.StoreWrites, s.StoreWriteErrors = c.Writes, c.WriteErrors
	}
	return s
}

// SpecDims resolves a topology descriptor to its observation dimensions
// (rows = L + 2n total, links = L internal-link rows), pooling the
// solver on the way — the HTTP layer's handle for validating
// single-shot bins before opening a stream.
func (e *Engine) SpecDims(spec topology.Spec) (rows, links int, err error) {
	if err := e.checkAccepting(); err != nil {
		return 0, 0, err
	}
	sol, err := e.entryFor(spec)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrStream, err)
	}
	return sol.rm.Rows(), sol.rm.L, nil
}

// SessionDims resolves a registered session's observation dimensions;
// unknown or mismatched handles fail with the same ErrNotFound
// semantics as Open.
func (e *Engine) SessionDims(s SessionSpec) (rows, links int, err error) {
	if err := e.checkAccepting(); err != nil {
		return 0, 0, err
	}
	_, rm, _, err := e.resolveSession(s)
	if err != nil {
		return 0, 0, err
	}
	return rm.Rows(), rm.L, nil
}
