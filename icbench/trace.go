package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ictm/internal/estimation"
	"ictm/internal/routing"
	"ictm/internal/serve"
	"ictm/internal/store"
	"ictm/internal/tm"
	"ictm/internal/topology"
)

// span is one timed call into a layer. Spans of one operation share Req
// (-1 for set-up); Parent indexes the enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// recorder receives span boundaries. The traced replay keeps spans in
// memory; the untraced replay uses nopRecorder so the two runs differ only
// by the recording, which gives trace.overhead_ratio.
type recorder interface {
	begin(name string, parent, req int) int
	end(id int)
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

type nopRecorder struct{}

func (nopRecorder) begin(string, int, int) int { return -1 }
func (nopRecorder) end(int)                    {}

// selfTimes sums, per span name, the self time of the spans keep accepts:
// each span's duration minus the time its children cover. The replay is
// sequential, so children never overlap.
func selfTimes(spans []span, keep func(span) bool) map[string]time.Duration {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]time.Duration{}
	for i, s := range spans {
		if keep(s) {
			self[s.Name] += time.Duration(s.End - s.Start - child[i])
		}
	}
	return self
}

// layerCounts are the counts recorded at the same boundaries as the spans.
type layerCounts struct {
	bins, sweeps, responseBytes int
}

// composed is one traced bin's stage-composed estimate, kept for the
// comparison with Estimator.EstimateBin after the replay.
type composed struct {
	topo  *topoInput
	prior estimation.Prior
	bin   serve.Bin
	est   serve.Estimate
}

// replayer runs a workload's operations in-process, calling each layer's
// public entry point in the order the server calls it.
type replayer struct {
	in     *inputs
	rec    recorder
	engine *serve.Engine
	st     *store.Store // the same directory the engine's store uses
	counts layerCounts
	out    []composed
	// handles[k][p] are the engine's prior handles; comp[k] is the
	// estimator the stages of topology k's bins run on.
	handles handles
	comp    map[string]*topoInput
}

func newReplayer(in *inputs, rec recorder, dir string) (*replayer, error) {
	r := &replayer{in: in, rec: rec, comp: map[string]*topoInput{}}
	var opts []serve.EngineOption
	if in.w.store {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		var err error
		if r.st, err = store.Open(dir); err != nil {
			return nil, err
		}
		// The engine gets its own Store value over the directory, as a
		// second replica would.
		est, err := store.Open(dir)
		if err != nil {
			return nil, err
		}
		opts = append(opts, serve.WithStore(est))
	}
	r.engine = serve.NewEngine(0, opts...) // icserve's defaults
	return r, nil
}

// setup registers every topology and prior with the engine and times a
// routing.Build of each topology.
func (r *replayer) setup() error {
	for _, t := range r.in.topos {
		s := r.rec.begin("setup", -1, -1)
		b := r.rec.begin("routing.build", s, -1)
		rm, err := routing.Build(t.g)
		r.rec.end(b)
		if err != nil {
			return err
		}
		if !rm.CSR().Equal(t.rm.CSR()) {
			return fmt.Errorf("topology %s: routing.Build is not deterministic", t.key)
		}
		g := r.rec.begin("serve.register_topology", s, -1)
		_, _, err = r.engine.RegisterTopology(t.key, t.spec)
		r.rec.end(g)
		if err != nil {
			return err
		}
		var hs []string
		for _, st := range t.states {
			p := r.rec.begin("serve.register_prior", s, -1)
			h, _, err := r.engine.RegisterPrior(t.key, st)
			r.rec.end(p)
			if err != nil {
				return err
			}
			hs = append(hs, h)
		}
		r.handles = append(r.handles, hs)
		r.comp[t.key] = t
		r.rec.end(s)
	}
	return nil
}

// runOps replays the first n operations of the seeded sequence.
func (r *replayer) runOps(n int) error {
	if r.in.w.closed {
		for i := 0; i < n; i++ {
			c := i % len(r.in.days)
			day := r.in.days[c][i/len(r.in.days)%len(r.in.days[c])]
			body, err := dayBody(r.in.topos[0].key, r.handles[0][0], r.in.dayBins[day])
			if err != nil {
				return err
			}
			if err := r.stream(i, body); err != nil {
				return err
			}
		}
		return nil
	}
	for i, o := range r.in.ops[:min(n, len(r.in.ops))] {
		if err := r.single(i, o); err != nil {
			return err
		}
	}
	return nil
}

// single replays one single-shot op: decode, resolve, the per-bin stages
// and encode. A patch op first replays its PATCH as a request of its own;
// building the estimate body in between is client work and stays outside
// the spans.
func (r *replayer) single(i int, o op) error {
	base := r.in.topos[o.topo]
	key, handle := base.key, r.handles[o.topo][o.prior]
	if o.flap >= 0 {
		var err error
		if key, handle, err = r.patch(i, base, o); err != nil {
			return err
		}
	}
	body, err := estimateBody(base, key, handle, o)
	if err != nil {
		return err
	}

	req := r.rec.begin("request", -1, i)
	defer r.rec.end(req)
	d := r.rec.begin("serve.decode", req, i)
	var (
		v1  serve.Request
		v2  serve.EstimateRequest
		bin serve.Bin
	)
	if o.v1 {
		if err = json.Unmarshal(body, &v1); err == nil {
			bin = v1.Bins[0]
		}
	} else {
		if err = json.Unmarshal(body, &v2); err == nil {
			bin = v2.Bins[0]
		}
	}
	y := observation(bin)
	r.rec.end(d)
	if err != nil {
		return err
	}

	res := r.rec.begin("serve.resolve", req, i)
	t, prior, err := r.resolve(i, req, res, o, v1, v2)
	if err != nil {
		return err
	}
	est, err := r.bin(i, req, t, prior, bin, y)
	if err != nil {
		return err
	}

	e := r.rec.begin("serve.encode", req, i)
	reply, err := json.Marshal(serve.Response{Results: []serve.Estimate{est}})
	r.rec.end(e)
	r.counts.responseBytes += len(reply) + 1
	return err
}

// resolve is the server's session lookup: Engine.SessionDims for v2, and
// for v1 Engine.SpecDims plus the per-request prior instantiation
// OpenInline does. It ends the resolve span res. When the lookup read a
// matrix through the engine's store, the harness repeats that read on its
// own so its stage estimator matches the engine's, timing store.GetMatrix
// and the estimator construction.
func (r *replayer) resolve(i, req, res int, o op, v1 serve.Request, v2 serve.EstimateRequest) (*topoInput, estimation.Prior, error) {
	if o.v1 {
		_, _, err := r.engine.SpecDims(v1.Topology)
		var st estimation.PriorState
		if err == nil {
			err = json.Unmarshal(v1.Prior, &st)
		}
		var p estimation.Prior
		if err == nil {
			p, err = st.Prior(r.in.topos[o.topo].rm.N)
		}
		r.rec.end(res)
		return r.in.topos[o.topo], p, err
	}
	// The solver pool is full after set-up, so a pool miss shows as an
	// eviction; with a store attached the miss was filled from it.
	var evicted int64
	if r.st != nil {
		evicted = r.engine.Stats().TopologiesEvicted
	}
	_, _, err := r.engine.SessionDims(v2.SessionSpec)
	r.rec.end(res)
	if err != nil {
		return nil, nil, err
	}
	t := r.comp[v2.Topology]
	if r.st != nil && r.engine.Stats().TopologiesEvicted > evicted {
		g := r.rec.begin("store.get_matrix", req, i)
		rm, err := r.st.GetMatrix(t.spec.Key())
		r.rec.end(g)
		if err != nil {
			return nil, nil, err
		}
		n := r.rec.begin("estimation.new_estimator", req, i)
		fresh, err := newTopoFromMatrix(t.key, t.spec, t.g, rm, t.states)
		r.rec.end(n)
		if err != nil {
			return nil, nil, err
		}
		fresh.flaps, fresh.derived = t.flaps, t.derived
		t = fresh
		r.comp[v2.Topology] = t
	}
	return t, t.priors[o.prior], nil
}

// patch replays a link-flap PATCH: Engine.PatchTopology as the server runs
// it, then routing.Patch, Estimator.Rebase and store.PutMatrix on the
// harness's own objects (the engine runs the same three inside its call),
// so each layer gets a span. It returns the derived key and prior handle.
func (r *replayer) patch(i int, base *topoInput, o op) (string, string, error) {
	delta := base.flaps[o.flap].Down()
	req := r.rec.begin("patch", -1, i)
	defer r.rec.end(req)
	p := r.rec.begin("serve.patch_topology", req, i)
	res, err := r.engine.PatchTopology(base.key, delta)
	r.rec.end(p)
	if err != nil {
		return "", "", err
	}
	from := r.comp[base.key]
	rp := r.rec.begin("routing.patch", req, i)
	rm, g, err := routing.Patch(from.rm, from.g, delta)
	r.rec.end(rp)
	if err != nil {
		return "", "", err
	}
	rb := r.rec.begin("estimation.rebase", req, i)
	est, err := from.est.Rebase(rm)
	r.rec.end(rb)
	if err != nil {
		return "", "", err
	}
	sp := r.rec.begin("store.put_matrix", req, i)
	err = r.st.PutMatrix(topology.GraphSpec(g).Key(), rm)
	r.rec.end(sp)
	if err != nil {
		return "", "", err
	}
	rp = r.rec.begin("serve.register_prior", req, i)
	handle, _, err := r.engine.RegisterPrior(res.Key, base.states[o.prior])
	r.rec.end(rp)
	if err != nil {
		return "", "", err
	}
	r.comp[res.Key] = &topoInput{key: res.Key, spec: topology.GraphSpec(g), g: g, rm: rm, est: est,
		states: base.states, priors: est.RegisteredPriors()}
	return res.Key, handle, nil
}

// stream replays one NDJSON day stream: header decode and session lookup,
// then per line the bin decode, the stages and the line encode.
func (r *replayer) stream(i int, body []byte) error {
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	req := r.rec.begin("request", -1, i)
	defer r.rec.end(req)
	d := r.rec.begin("serve.decode", req, i)
	var hdr serve.EstimateRequest
	err := json.Unmarshal(lines[0], &hdr)
	r.rec.end(d)
	if err != nil {
		return err
	}
	res := r.rec.begin("serve.resolve", req, i)
	_, _, err = r.engine.SessionDims(hdr.SessionSpec)
	r.rec.end(res)
	if err != nil {
		return err
	}
	t := r.comp[hdr.Topology]
	for _, line := range lines[1:] {
		d := r.rec.begin("serve.decode", req, i)
		var bin serve.Bin
		err := json.Unmarshal(line, &bin)
		y := observation(bin)
		r.rec.end(d)
		if err != nil {
			return err
		}
		est, err := r.bin(i, req, t, t.priors[0], bin, y)
		if err != nil {
			return err
		}
		e := r.rec.begin("serve.encode", req, i)
		out, err := json.Marshal(est)
		r.rec.end(e)
		if err != nil {
			return err
		}
		r.counts.responseBytes += len(out) + 1
	}
	return nil
}

// bin runs the estimation stages of one bin through the public entry
// points, in EstimateBin's order: prior, projection, clamp + IPF. y is the
// bin's observation, missing rows NaN.
func (r *replayer) bin(i, req int, t *topoInput, prior estimation.Prior, b serve.Bin, y []float64) (serve.Estimate, error) {
	rm, solver := t.rm, t.est.Solver()

	p := r.rec.begin("estimation.prior", req, i)
	_, ing, eg, err := rm.SplitLoads(y)
	var pm *tm.TrafficMatrix
	if err == nil {
		pm, err = prior.PriorFor(b.T, ing, eg)
	}
	r.rec.end(p)
	if err != nil {
		return serve.Estimate{}, err
	}

	diag := estimation.BinDiag{IPFConverged: true}
	j := r.rec.begin("estimation.project", req, i)
	var x *tm.TrafficMatrix
	switch dropped := len(b.Missing); {
	case dropped == 0:
		x, diag.ProjectStalled, diag.LSQRIterations, err = solver.ProjectReport(pm, y)
	case float64(rm.L-dropped) < estimation.ObservabilityFloor*float64(rm.L):
		diag.Degraded, diag.LinksDropped, diag.PriorFallback = true, dropped, true
		x = pm.Clone()
	default:
		diag.Degraded, diag.LinksDropped = true, dropped
		keep := make([]bool, len(y))
		for k := range keep {
			keep[k] = true
		}
		for _, m := range b.Missing {
			keep[m] = false
		}
		x, diag.ProjectStalled, diag.LSQRIterations, err = solver.ProjectMaskedReport(pm, y, keep)
	}
	r.rec.end(j)
	if err != nil {
		return serve.Estimate{}, err
	}

	f := r.rec.begin("estimation.ipf", req, i)
	x.ClampNonNegative()
	diag.IPFSweeps, err = estimation.IPF(x, ing, eg, 0, 0)
	r.rec.end(f)
	if errors.Is(err, estimation.ErrIPFNoConverge) {
		diag.IPFConverged, err = false, nil
	}
	if err != nil {
		return serve.Estimate{}, err
	}
	r.counts.bins++
	r.counts.sweeps += diag.IPFSweeps
	est := serve.Estimate{T: b.T, N: rm.N, Estimate: x.Vec(), Diag: diag}
	r.out = append(r.out, composed{topo: t, prior: prior, bin: b, est: est})
	return est, nil
}

// checkComposed requires every traced bin's stage-composed estimate to
// equal Estimator.EstimateBin's bytes, so the trace timed the work the
// server does.
func checkComposed(out []composed) error {
	for _, c := range out {
		x, diag, err := c.topo.est.EstimateBin(c.prior, c.bin.T, observation(c.bin))
		if err != nil {
			return err
		}
		want, err := json.Marshal(serve.Estimate{T: c.bin.T, N: x.N(), Estimate: x.Vec(), Diag: diag})
		if err != nil {
			return err
		}
		got, err := json.Marshal(c.est)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("traced bin %d: stage-composed estimate differs from Estimator.EstimateBin", c.bin.T)
		}
	}
	return nil
}

// traceResult is what the traced run measured.
type traceResult struct {
	spans         []span
	self          map[string]time.Duration
	counts        layerCounts
	overheadRatio float64
	matvecPairUs  float64
}

// replay runs the workload's first traceOps operations on fresh engines:
// one untimed warm-up replay, then replayRounds rounds of an untraced and a
// traced replay, and checks the traced estimates. The overhead ratio
// compares the summed operation wall times of the two sides.
func replay(in *inputs, scratch string) (*traceResult, error) {
	var (
		wall   [2]time.Duration
		traced *replayer
		tr     *tracer
	)
	for round := 0; round <= replayRounds; round++ {
		for side := 0; side < 2; side++ {
			if round == 0 && side == 1 {
				continue
			}
			var rec recorder = nopRecorder{}
			if side == 1 {
				tr = &tracer{t0: time.Now()}
				rec = tr
			}
			r, err := newReplayer(in, rec, filepath.Join(scratch, "replay"))
			if err != nil {
				return nil, err
			}
			if err := r.setup(); err != nil {
				return nil, err
			}
			t0 := time.Now()
			if err := r.runOps(in.w.traceOps); err != nil {
				return nil, err
			}
			if round > 0 {
				wall[side] += time.Since(t0)
			}
			if side == 1 {
				traced = r
			}
		}
	}
	if err := checkComposed(traced.out); err != nil {
		return nil, err
	}
	return &traceResult{
		spans:         tr.spans,
		self:          selfTimes(tr.spans, func(s span) bool { return s.Req >= 0 }),
		counts:        traced.counts,
		overheadRatio: wall[1].Seconds() / wall[0].Seconds(),
		matvecPairUs:  matvecPairUs(in.topos[0].rm),
	}, nil
}

// replayRounds is how many untraced and traced replays a traced run
// alternates after its warm-up; the last traced one supplies the spans.
const replayRounds = 2

// matvecPairUs times one Sparse.MulVecTo plus one TMulVecTo, the sparse
// work of one LSQR iteration, on the workload's routing matrix: the median
// over blocks of repetitions.
func matvecPairUs(rm *routing.Matrix) float64 {
	a := rm.CSR()
	x := make([]float64, a.Cols())
	y := make([]float64, a.Rows())
	for k := range x {
		x[k] = 1 / float64(k+1)
	}
	reps := max(1, 2_000_000/max(1, a.NNZ()))
	var per []float64
	for block := 0; block < 15; block++ {
		t0 := time.Now()
		for k := 0; k < reps; k++ {
			a.MulVecTo(y, x)
			a.TMulVecTo(x, y)
		}
		per = append(per, float64(time.Since(t0))/float64(time.Microsecond)/float64(reps))
	}
	return median(per)
}

// bytesPerIter is the computed (not measured) memory traffic of one LSQR
// iteration's sparse work on a CSR matrix with 8-byte values and indices:
// both products stream the values, column indices and row pointers once,
// and read their input vector and write their output vector once.
func bytesPerIter(rm *routing.Matrix) float64 {
	a := rm.CSR()
	nnz, rows, cols := float64(a.NNZ()), float64(a.Rows()), float64(a.Cols())
	return 2*(16*nnz+8*(rows+1)) + 2*8*(rows+cols)
}

// writeSpans writes the traced run's spans, one JSON object per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// meanSpan is the mean duration in ms of the spans with a name, 0 if none.
func meanSpan(spans []span, name string) float64 {
	var sum time.Duration
	n := 0
	for _, s := range spans {
		if s.Name == name {
			sum += time.Duration(s.End - s.Start)
			n++
		}
	}
	return ratio(ms(sum), float64(n))
}

// shares lists the self time of each span name under the requests (set-up
// excluded) as a share of the requests' total time, largest first.
func shares(spans []span) []stageShare {
	var total int64
	for _, s := range spans {
		if s.Req >= 0 && s.Parent < 0 {
			total += s.End - s.Start
		}
	}
	var out []stageShare
	for name, d := range selfTimes(spans, func(s span) bool { return s.Req >= 0 }) {
		out = append(out, stageShare{Name: name, SelfMs: ms(d), Share: ratio(float64(d), float64(total))})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SelfMs > out[b].SelfMs })
	return out
}

type stageShare struct {
	Name   string  `json:"name"`
	SelfMs float64 `json:"self_ms"`
	Share  float64 `json:"share"`
}
