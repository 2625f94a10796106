package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"ictm/internal/estimation"
	"ictm/internal/faults"
	"ictm/internal/fit"
	"ictm/internal/rng"
	"ictm/internal/routing"
	"ictm/internal/serve"
	"ictm/internal/synth"
	"ictm/internal/tm"
	"ictm/internal/topology"
)

// A workload fixes every rate, mix, latency limit and size as a constant;
// only the seed, which picks the request sequence, is an argument. Why each
// workload exists and which layers it should move is recorded in METRICS.md.
type workload struct {
	name string
	// closed selects a closed loop of clients instead of an open-loop
	// Poisson schedule of rate requests per second.
	closed  bool
	rate    float64
	clients int
	// sloMs is the fixed latency limit of slo_met_ratio (open loops).
	sloMs float64
	// warmup runs before the timed window and is never measured.
	warmup time.Duration
	// setupTrials is how many times the server is started and set up;
	// setup_s is the median.
	setupTrials int
	// checkEvery: one served bin in checkEvery (seeded) is recomputed
	// in-process and compared byte for byte.
	checkEvery int
	// traceOps is how many operations of the seeded sequence the traced
	// in-process replay runs.
	traceOps int
	// store runs the server with -store-dir.
	store bool
	gen   func(w *workload, seed uint64, horizon time.Duration) (*inputs, error)
}

var workloads = []*workload{
	{
		name: "geant-online", rate: 200, sloMs: 25,
		warmup: 2 * time.Second, setupTrials: 7, checkEvery: 20, traceOps: 600,
		gen: genGeant,
	},
	{
		name: "isp100-backfill", closed: true, clients: 1,
		warmup: 3 * time.Second, setupTrials: 5, checkEvery: 40, traceOps: 2,
		gen: genBackfill,
	},
	{
		name: "isp-churn", rate: 50, sloMs: 50,
		warmup: 2 * time.Second, setupTrials: 3, checkEvery: 10, traceOps: 400,
		store: true, gen: genChurn,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Workload sizes and mixes.
const (
	geantV1Share    = 0.10 // v1 inline requests
	geantLossyShare = 0.10 // bins observed through the lossy fault profile

	backfillN       = 100
	backfillDayBins = 24 // hourly bins: one NDJSON request streams one day

	churnN          = 40
	churnTopologies = 80 // more than the engine's 64-entry LRU holds
	churnZipfS      = 1.0
	churnPatchShare = 0.06
	churnFlaps      = 4 // flap events per topology
)

// topoInput is one topology the workload registers, with everything the
// harness needs to generate observations and recompute estimates.
type topoInput struct {
	key    string
	spec   topology.Spec
	g      *topology.Graph
	rm     *routing.Matrix
	est    *estimation.Estimator
	states []estimation.PriorState
	priors []estimation.Prior // instances of states against est
	flaps  []synth.FlapEvent
	// derived holds the patched topology per flap index (Down delta).
	derived map[int]*topoInput
}

// observation is the estimator's view of a wire bin, whose missing link
// reports travel as indices with their load zeroed: missing rows are NaN.
func observation(b serve.Bin) []float64 {
	if len(b.Missing) == 0 {
		return b.Y
	}
	y := append([]float64(nil), b.Y...)
	for _, i := range b.Missing {
		y[i] = math.NaN()
	}
	return y
}

// op is one scheduled operation of an open-loop workload: an estimate of
// one bin, preceded by a PATCH of the topology when flap >= 0.
type op struct {
	due   time.Duration
	topo  int
	prior int
	v1    bool
	flap  int
	bin   serve.Bin
}

type inputs struct {
	w     *workload
	seed  uint64
	truth *tm.Series
	topos []*topoInput
	// ops is the open-loop schedule.
	ops []op
	// days[c] is client c's sequence of day streams (closed loop), each
	// named by its first served bin; dayBins[d] are that day's
	// observations.
	days    [][]int
	dayBins map[int][]serve.Bin
}

// target returns the topology an op's estimate runs against.
func (in *inputs) target(o op) *topoInput {
	t := in.topos[o.topo]
	if o.flap >= 0 {
		return t.derived[o.flap]
	}
	return t
}

func newTopo(key string, spec topology.Spec, states []estimation.PriorState) (*topoInput, error) {
	g, err := spec.Build()
	if err != nil {
		return nil, err
	}
	rm, err := routing.Build(g)
	if err != nil {
		return nil, err
	}
	return newTopoFromMatrix(key, spec, g, rm, states)
}

func newTopoFromMatrix(key string, spec topology.Spec, g *topology.Graph, rm *routing.Matrix, states []estimation.PriorState) (*topoInput, error) {
	est, err := estimation.NewEstimator(rm)
	if err != nil {
		return nil, err
	}
	t := &topoInput{key: key, spec: spec, g: g, rm: rm, est: est, states: states}
	for _, st := range states {
		p, err := est.RegisterPrior(st)
		if err != nil {
			return nil, err
		}
		t.priors = append(t.priors, p)
	}
	return t, nil
}

// hourlyWeek is a scenario reduced to one week of hourly bins, which keeps
// hundred-node ground truth small while the per-bin solve is unchanged.
func hourlyWeek(sc synth.Scenario) synth.Scenario {
	sc.BinsPerWeek, sc.BinSeconds, sc.Weeks = 7*backfillDayBins, 3600, 1
	return sc
}

// fittedICPrior fits the IC stable-fP prior on the first calibBins bins,
// which the workloads never serve.
func fittedICPrior(d *synth.Dataset, calibBins int) (estimation.PriorState, error) {
	calib, err := d.Series.Slice(0, calibBins)
	if err != nil {
		return estimation.PriorState{}, err
	}
	res, err := fit.StableFP(calib, fit.Options{})
	if err != nil {
		return estimation.PriorState{}, fmt.Errorf("fit prior: %w", err)
	}
	return estimation.PriorState{Name: "ic-stable-fP", F: res.Params.F, Pref: res.Params.Pref}, nil
}

func observe(rm *routing.Matrix, truth *tm.Series, t int, inj *faults.Injector) (serve.Bin, error) {
	y, err := rm.LinkLoads(truth.At(t))
	if err != nil {
		return serve.Bin{}, err
	}
	b := serve.Bin{T: t, Y: y}
	if inj == nil {
		return b, nil
	}
	prev, err := rm.LinkLoads(truth.At(t - 1))
	if err != nil {
		return serve.Bin{}, err
	}
	inj.Apply(t, y, prev)
	for i := 0; i < rm.L; i++ {
		if math.IsNaN(y[i]) {
			y[i] = 0
			b.Missing = append(b.Missing, i)
		}
	}
	return b, nil
}

// genGeant: GeantLike (n=22), one-bin JSON requests by handle against a
// gravity or a fitted IC prior; 10% v1 inline, 10% lossy bins.
func genGeant(w *workload, seed uint64, horizon time.Duration) (*inputs, error) {
	sc := synth.GeantLike()
	sc.Weeks = 1
	d, err := synth.Generate(sc)
	if err != nil {
		return nil, err
	}
	day := sc.BinsPerWeek / 7
	ic, err := fittedICPrior(d, day)
	if err != nil {
		return nil, err
	}
	topo, err := newTopo("geant", sc.Topology(), []estimation.PriorState{{Name: "gravity"}, ic})
	if err != nil {
		return nil, err
	}
	in := &inputs{w: w, seed: seed, truth: d.Series, topos: []*topoInput{topo}}
	inj := faults.NewInjector(faults.Lossy(), seed, topo.rm.L)
	r := rng.New(seed).Derive(w.name)
	for due := r.Exp(w.rate); due < horizon.Seconds(); due += r.Exp(w.rate) {
		o := op{due: secs(due), flap: -1}
		t := day + r.Intn(d.Series.Len()-day)
		o.prior = r.Intn(len(topo.states))
		o.v1 = r.Float64() < geantV1Share
		var fi *faults.Injector
		if r.Float64() < geantLossyShare {
			fi = inj
		}
		if o.bin, err = observe(topo.rm, d.Series, t, fi); err != nil {
			return nil, err
		}
		in.ops = append(in.ops, o)
	}
	return in, nil
}

// genBackfill: ISPLike(100), one IC stable-f prior, one client streaming
// consecutive days of the week's last six days (day 0 calibrates the prior).
// The server spreads a stream's bins over its workers, so one stream keeps
// both CPUs of a 2-CPU host busy; a second concurrent stream made the
// server's CPU per bin swing between 34 and 55 ms from run to run.
func genBackfill(w *workload, seed uint64, _ time.Duration) (*inputs, error) {
	sc := hourlyWeek(synth.ISPLike(backfillN))
	d, err := synth.Generate(sc)
	if err != nil {
		return nil, err
	}
	ic, err := fittedICPrior(d, backfillDayBins)
	if err != nil {
		return nil, err
	}
	// The stable-f prior (fitted f, closed-form activities) keeps the bin
	// projection-dominated, which is what this workload is for: at n=100
	// the stable-fP prior's activity recovery costs about as much as the
	// projection. Its cost is measured on geant-online and isp-churn.
	stableF := estimation.PriorState{Name: "ic-stable-f", F: ic.F}
	topo, err := newTopo("isp100", sc.Topology(), []estimation.PriorState{stableF})
	if err != nil {
		return nil, err
	}
	in := &inputs{w: w, seed: seed, truth: d.Series, topos: []*topoInput{topo}, dayBins: map[int][]serve.Bin{}}
	// A stream is a day: 24 consecutive served bins from a seeded starting
	// hour, wrapping around the served range.
	served := d.Series.Len() - backfillDayBins
	r := rng.New(seed).Derive(w.name)
	start := r.Intn(served)
	for c := 0; c < w.clients; c++ {
		var seq []int
		for i := 0; i < served/backfillDayBins; i++ {
			seq = append(seq, (start+c*served/w.clients+i*backfillDayBins)%served)
		}
		in.days = append(in.days, seq)
	}
	for _, seq := range in.days {
		for _, off := range seq {
			if in.dayBins[off] != nil {
				continue
			}
			for h := 0; h < backfillDayBins; h++ {
				b, err := observe(topo.rm, d.Series, backfillDayBins+(off+h)%served, nil)
				if err != nil {
					return nil, err
				}
				in.dayBins[off] = append(in.dayBins[off], b)
			}
		}
	}
	return in, nil
}

// genChurn: churnTopologies distinct n=40 backbone-stub topologies sharing
// one traffic ensemble; Zipf key choice; a share of operations PATCH a link
// flap first and then estimate on the derived topology.
func genChurn(w *workload, seed uint64, horizon time.Duration) (*inputs, error) {
	sc := hourlyWeek(synth.ISPLike(churnN))
	d, err := synth.Generate(sc)
	if err != nil {
		return nil, err
	}
	ic, err := fittedICPrior(d, backfillDayBins)
	if err != nil {
		return nil, err
	}
	states := []estimation.PriorState{ic}
	in := &inputs{w: w, seed: seed, truth: d.Series, topos: make([]*topoInput, churnTopologies)}
	// Routing builds dominate input generation; two goroutines halve it.
	var (
		wg   sync.WaitGroup
		errs = make([]error, churnTopologies)
	)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g; k < churnTopologies; k += 2 {
				ksc := sc
				ksc.Seed = sc.Seed + uint64(k)
				t, err := newTopo(fmt.Sprintf("c%02d", k), ksc.Topology(), states)
				if err == nil {
					var fl synth.FlapSchedule
					fl, err = synth.GenerateFlaps(ksc, t.g, churnFlaps)
					t.flaps, t.derived = fl.Events, map[int]*topoInput{}
				}
				in.topos[k], errs[k] = t, err
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	r := rng.New(seed).Derive(w.name)
	for due := r.Exp(w.rate); due < horizon.Seconds(); due += r.Exp(w.rate) {
		o := op{due: secs(due), flap: -1}
		o.topo = r.Zipf(churnTopologies, churnZipfS) - 1
		if r.Float64() < churnPatchShare {
			o.flap = r.Intn(churnFlaps)
		}
		t := backfillDayBins + r.Intn(d.Series.Len()-backfillDayBins)
		base := in.topos[o.topo]
		if o.flap >= 0 {
			if base.derived[o.flap] == nil {
				dt, err := patched(base, base.flaps[o.flap].Down())
				if err != nil {
					return nil, err
				}
				base.derived[o.flap] = dt
			}
		}
		if o.bin, err = observe(in.target(o).rm, d.Series, t, nil); err != nil {
			return nil, err
		}
		in.ops = append(in.ops, o)
	}
	return in, nil
}

// patched is the topology a PATCH of base with delta derives.
func patched(base *topoInput, delta topology.Delta) (*topoInput, error) {
	rm, g, err := routing.Patch(base.rm, base.g, delta)
	if err != nil {
		return nil, err
	}
	return newTopoFromMatrix("", topology.GraphSpec(g), g, rm, base.states)
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// handles[k][p] is the server-issued handle of topology k's prior p.
type handles [][]string

// estimateBody encodes an open-loop op's estimate request: v2 by handle, or
// v1 inline with the topology and prior state on the wire.
func estimateBody(t *topoInput, key, handle string, o op) ([]byte, error) {
	bins := []serve.Bin{o.bin}
	if o.v1 {
		state, err := json.Marshal(t.states[o.prior])
		if err != nil {
			return nil, err
		}
		return json.Marshal(serve.Request{Topology: t.spec, Prior: state, Bins: bins})
	}
	return json.Marshal(serve.EstimateRequest{
		SessionSpec: serve.SessionSpec{Topology: key, Prior: handle}, Bins: bins,
	})
}

// requestBodies encodes every open-loop op whose target is known before the
// run (patch ops learn their derived key from the PATCH reply), or every
// day stream of a closed loop, keyed by day.
func requestBodies(in *inputs, h handles) (ops [][]byte, days map[int][]byte, err error) {
	if in.w.closed {
		days = map[int][]byte{}
		t := in.topos[0]
		for day, bins := range in.dayBins {
			if days[day], err = dayBody(t.key, h[0][0], bins); err != nil {
				return nil, nil, err
			}
		}
		return nil, days, nil
	}
	ops = make([][]byte, len(in.ops))
	for i, o := range in.ops {
		if o.flap >= 0 {
			continue
		}
		t := in.topos[o.topo]
		if ops[i], err = estimateBody(t, t.key, h[o.topo][o.prior], o); err != nil {
			return nil, nil, err
		}
	}
	return ops, nil, nil
}

// dayBody is one NDJSON stream: the session header, then one bin per line.
func dayBody(key, handle string, bins []serve.Bin) ([]byte, error) {
	body, err := json.Marshal(serve.EstimateRequest{SessionSpec: serve.SessionSpec{Topology: key, Prior: handle}})
	if err != nil {
		return nil, err
	}
	body = append(body, '\n')
	for _, b := range bins {
		line, err := json.Marshal(b)
		if err != nil {
			return nil, err
		}
		body = append(append(body, line...), '\n')
	}
	return body, nil
}
