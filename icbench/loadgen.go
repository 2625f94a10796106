package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"ictm/internal/serve"
	"ictm/internal/tm"
)

// sample is a served estimate kept for the in-process byte-equality check.
type sample struct {
	topo  *topoInput
	prior int
	bin   serve.Bin
	raw   []byte
}

// runResult is what one timed window measured.
type runResult struct {
	attempted, failed int
	failures          []string
	// Open loop: latencies (ms, from the scheduled send time) of the
	// window's successful plain estimates; due counts the window's plain
	// estimates and sloMet those answered correctly within the limit.
	latencies   []float64
	due, sloMet int
	lateness    []float64 // ms, open loop only
	patchLat    []float64 // ms, PATCH sent until the derived estimate arrived
	// Closed loop: request (one day stream) times and bins whose estimate
	// arrived inside the window.
	windowBins int
	relL2      []float64
	// ticks are the snapshots sampleWindow took across the timed window;
	// before is the first and after is taken once all work ended.
	ticks   []snapshot
	before  snapshot
	after   snapshot
	samples []sample
}

func (r *runResult) fail(err error) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, err.Error())
	}
}

// sampled picks, from the seed alone, one op id in every.
func sampled(seed uint64, id, every int) bool {
	z := seed ^ uint64(id)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return z%uint64(every) == 0
}

// verify checks one served estimate and returns its relative L2 error
// against the synthetic truth.
func verify(est serve.Estimate, t int, truth *tm.TrafficMatrix) (float64, error) {
	n := truth.N()
	switch {
	case est.Error != "":
		return 0, fmt.Errorf("bin %d: in-band error: %s", t, est.Error)
	case est.T != t:
		return 0, fmt.Errorf("bin %d: estimate for bin %d", t, est.T)
	case est.N != n || len(est.Estimate) != n*n:
		return 0, fmt.Errorf("bin %d: estimate n=%d len=%d, want n=%d", t, est.N, len(est.Estimate), n)
	}
	for _, v := range est.Estimate {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return 0, fmt.Errorf("bin %d: estimate entry %v", t, v)
		}
	}
	x, err := tm.FromVec(n, est.Estimate)
	if err != nil {
		return 0, err
	}
	return tm.RelL2(truth, x)
}

// decodeSingle parses a single-shot reply holding exactly one estimate and
// returns it with its raw bytes.
func decodeSingle(body []byte) (serve.Estimate, []byte, error) {
	var resp struct {
		Results []json.RawMessage `json:"results"`
	}
	var est serve.Estimate
	if err := json.Unmarshal(body, &resp); err != nil {
		return est, nil, fmt.Errorf("decode response: %w", err)
	}
	if len(resp.Results) != 1 {
		return est, nil, fmt.Errorf("response has %d results, want 1", len(resp.Results))
	}
	err := json.Unmarshal(resp.Results[0], &est)
	return est, resp.Results[0], err
}

// opOutcome is one open-loop op's reply; each is written by exactly one
// worker and read after all workers finished. Replies are decoded and
// verified after the window, so the generator's own work during the window
// is only sending and receiving.
type opOutcome struct {
	err        error
	reply      []byte
	patchStart time.Time
	arrive     time.Time
}

// runOpenLoop plays the seeded schedule against the server: a dispatcher
// releases each op at its due time to two workers, one per connection, so
// at most two requests are in flight. Latency counts from the due time, so
// time an op waited for a free connection is part of it.
func runOpenLoop(srv *server, in *inputs, bodies [][]byte, seconds time.Duration) (*runResult, error) {
	w := in.w
	outcomes := make([]opOutcome, len(in.ops))
	lateness := make([]time.Duration, len(in.ops))
	jobs := make(chan int, len(in.ops)) // one slot per op: dispatch never blocks
	start := time.Now().Add(20 * time.Millisecond)
	ctx := context.Background()

	var (
		ticks    []snapshot
		ticksErr error
		snapDone = make(chan struct{})
	)
	go func() {
		defer close(snapDone)
		ticks, ticksErr = srv.sampleWindow(start.Add(w.warmup), start.Add(w.warmup+seconds))
	}()
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				outcomes[i] = execOp(ctx, srv, in, bodies[i], i)
			}
		}()
	}
	for i, o := range in.ops {
		due := start.Add(o.due)
		time.Sleep(time.Until(due))
		lateness[i] = time.Since(due)
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	<-snapDone
	if ticksErr != nil {
		return nil, ticksErr
	}
	after, err := srv.snapshot()
	if err != nil {
		return nil, err
	}

	res := &runResult{ticks: ticks, before: ticks[0], after: after}
	for i, o := range in.ops {
		res.attempted++
		inWindow := o.due >= w.warmup && o.due < w.warmup+seconds
		if inWindow {
			res.lateness = append(res.lateness, ms(lateness[i]))
			if o.flap < 0 {
				res.due++
			}
		}
		out := outcomes[i]
		rel, raw, err := checkReply(in, o, out)
		if err != nil {
			res.fail(err)
			continue
		}
		if sampled(in.seed, i, w.checkEvery) {
			res.samples = append(res.samples, sample{topo: in.target(o), prior: o.prior, bin: o.bin, raw: raw})
		}
		if !inWindow {
			continue
		}
		res.relL2 = append(res.relL2, rel)
		if o.flap >= 0 {
			res.patchLat = append(res.patchLat, ms(out.arrive.Sub(out.patchStart)))
			continue
		}
		lat := ms(out.arrive.Sub(start.Add(o.due)))
		res.latencies = append(res.latencies, lat)
		if lat <= w.sloMs {
			res.sloMet++
		}
	}
	return res, nil
}

// checkReply verifies an op's reply and returns the estimate's relative
// L2 error with its raw bytes.
func checkReply(in *inputs, o op, out opOutcome) (float64, []byte, error) {
	if out.err != nil {
		return 0, nil, out.err
	}
	est, raw, err := decodeSingle(out.reply)
	if err != nil {
		return 0, nil, err
	}
	rel, err := verify(est, o.bin.T, in.truth.At(o.bin.T))
	return rel, raw, err
}

func execOp(ctx context.Context, srv *server, in *inputs, body []byte, i int) opOutcome {
	o := in.ops[i]
	var out opOutcome
	if o.flap >= 0 {
		out.patchStart = time.Now()
		var err error
		if body, err = patchFirst(ctx, srv, in.topos[o.topo], o); err != nil {
			return opOutcome{err: err}
		}
	}
	path := "/v2/estimate"
	if o.v1 {
		path = "/v1/estimate"
	}
	out.reply, out.err = call(ctx, srv.load, http.MethodPost, srv.base+path, "application/json", body)
	out.arrive = time.Now()
	return out
}

// patchFirst sends the op's link-flap PATCH, resolves the carried prior's
// handle on the derived key (an idempotent re-registration), and returns
// the estimate body for the derived topology.
func patchFirst(ctx context.Context, srv *server, base *topoInput, o op) ([]byte, error) {
	delta, err := json.Marshal(base.flaps[o.flap].Down())
	if err != nil {
		return nil, err
	}
	reply, err := call(ctx, srv.load, http.MethodPatch, srv.base+"/v2/topologies/"+base.key, "application/json", delta)
	if err != nil {
		return nil, err
	}
	var res serve.PatchResult
	if err := json.Unmarshal(reply, &res); err != nil {
		return nil, fmt.Errorf("decode patch result: %w", err)
	}
	handle, err := registerPrior(ctx, srv.load, srv.base, res.Key, base.states[o.prior])
	if err != nil {
		return nil, err
	}
	return estimateBody(base.derived[o.flap], res.Key, handle, o)
}

// runClosedLoop runs the backfill client(s): each streams its next day as
// one NDJSON request as soon as the previous one completed, until the
// window ends.
func runClosedLoop(srv *server, in *inputs, days map[int][]byte, seconds time.Duration) (*runResult, error) {
	w := in.w
	start := time.Now()
	winFrom := start.Add(w.warmup)
	winTo := winFrom.Add(seconds)

	var (
		ticks    []snapshot
		ticksErr error
		snapDone = make(chan struct{})
	)
	go func() {
		defer close(snapDone)
		ticks, ticksErr = srv.sampleWindow(winFrom, winTo)
	}()
	parts := make([]runResult, w.clients)
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &parts[c]
			for i := 0; time.Now().Before(winTo); i++ {
				day := in.days[c][i%len(in.days[c])]
				t0 := time.Now()
				streamDay(srv, in, r, days[day], day, c*1_000_000+i*1000, winFrom, winTo)
				if !t0.Before(winFrom) {
					r.latencies = append(r.latencies, ms(time.Since(t0)))
				}
			}
		}(c)
	}
	wg.Wait()
	<-snapDone
	if ticksErr != nil {
		return nil, ticksErr
	}
	after, err := srv.snapshot()
	if err != nil {
		return nil, err
	}
	res := &runResult{ticks: ticks, before: ticks[0], after: after}
	for _, p := range parts {
		res.attempted += p.attempted
		res.failed += p.failed
		res.failures = append(res.failures, p.failures...)
		res.latencies = append(res.latencies, p.latencies...)
		res.windowBins += p.windowBins
		res.relL2 = append(res.relL2, p.relL2...)
		res.samples = append(res.samples, p.samples...)
	}
	return res, nil
}

// streamDay sends one day stream and verifies every estimate line as it
// arrives; every bin is one operation.
func streamDay(srv *server, in *inputs, r *runResult, body []byte, day, id int, winFrom, winTo time.Time) {
	bins := in.dayBins[day]
	topo := in.topos[0]
	r.attempted += len(bins)
	req, err := http.NewRequest(http.MethodPost, srv.base+"/v2/estimate", bytes.NewReader(body))
	if err != nil {
		r.failed += len(bins) - 1
		r.fail(err)
		return
	}
	req.Header.Set("Content-Type", serve.NDJSONContentType)
	resp, err := srv.load.Do(req)
	if err != nil {
		r.failed += len(bins) - 1
		r.fail(err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		r.failed += len(bins) - 1
		r.fail(fmt.Errorf("stream day %d: %s", day, resp.Status))
		return
	}
	br := bufio.NewReaderSize(resp.Body, 1<<20)
	got := 0
	for {
		line, err := br.ReadBytes('\n')
		if errors.Is(err, io.EOF) && len(line) == 0 {
			break
		}
		if err != nil && !errors.Is(err, io.EOF) {
			r.failed += len(bins) - got - 1
			r.fail(fmt.Errorf("stream day %d: %w", day, err))
			return
		}
		arrive := time.Now()
		line = bytes.TrimSuffix(line, []byte("\n"))
		if got >= len(bins) {
			r.fail(fmt.Errorf("stream day %d: extra line %q", day, line))
			continue
		}
		b := bins[got]
		got++
		var est serve.Estimate
		if err := json.Unmarshal(line, &est); err != nil {
			r.fail(fmt.Errorf("stream day %d: %w", day, err))
			continue
		}
		rel, err := verify(est, b.T, in.truth.At(b.T))
		if err != nil {
			r.fail(err)
			continue
		}
		if !arrive.Before(winFrom) && arrive.Before(winTo) {
			r.windowBins++
			r.relL2 = append(r.relL2, rel)
		}
		if sampled(in.seed, id+got, in.w.checkEvery) {
			r.samples = append(r.samples, sample{topo: topo, bin: b, raw: line})
		}
	}
	if got < len(bins) {
		r.failed += len(bins) - got - 1
		r.fail(fmt.Errorf("stream day %d: %d of %d estimates", day, got, len(bins)))
	}
}

// checkSamples recomputes each sampled estimate in-process with
// Estimator.EstimateBin and requires the served bytes to equal it.
func checkSamples(samples []sample) (mismatches []error) {
	for _, s := range samples {
		x, diag, err := s.topo.est.EstimateBin(s.topo.priors[s.prior], s.bin.T, observation(s.bin))
		if err != nil {
			mismatches = append(mismatches, fmt.Errorf("recompute bin %d: %w", s.bin.T, err))
			continue
		}
		want, err := json.Marshal(serve.Estimate{T: s.bin.T, N: x.N(), Estimate: x.Vec(), Diag: diag})
		if err != nil {
			mismatches = append(mismatches, err)
			continue
		}
		if !bytes.Equal(want, s.raw) {
			mismatches = append(mismatches, fmt.Errorf("bin %d: served estimate differs from Estimator.EstimateBin", s.bin.T))
		}
	}
	return mismatches
}
