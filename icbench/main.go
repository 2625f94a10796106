// Command icbench is the icserve benchmark. It builds icserve, starts it as
// a real process, drives one seeded workload against it over HTTP, checks
// every output, and prints the end-to-end metrics; with -trace 1 it also
// replays the workload in-process with spans around each layer's public
// entry points and prints the per-layer metrics instead.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash icbench/run.sh --workload geant-online --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result:
//
//	{"correct":true,"attempted":…,"failed":0,"metrics":{"latency_p50_ms":{"value":…,"unit":"ms"},…}}
//
// The line before it is a report with every metric of the workload, its
// unit and sample count, the operation counts and the host record. The exit
// code is non-zero when any operation or output check failed. METRICS.md
// records why each workload exists and what each metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"ictm/internal/serve"
)

// maxLatenessP99Ms bounds how late the open-loop generator may send (p99):
// beyond it the generator, not the server, set the schedule, and the
// window is measured again.
const maxLatenessP99Ms = 10

// windowAttempts is how many timed windows a run tries before it reports a
// generator that keeps falling behind as an invalid run.
const windowAttempts = 3

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "icbench: %v\n", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// scored are the end-to-end metrics the result line carries: the ones every
// workload defines and whose run-to-run spread on a shared 2-CPU host
// stayed well inside a 0.25 bound. The report line adds the rest:
// latency_p50_ms spread by up to 0.38 between runs of identical code on
// geant-online, and server_rss_peak_mb, which depends on GC timing, jumped
// from 34 MB to 49-59 MB in two of ten isp-churn runs.
var scored = []string{"setup_s", "cpu_ms_per_bin", "est_rel_l2_mean"}

var perLayer = []string{
	"serve.wire_decode_us_per_bin", "serve.wire_encode_us_per_bin", "serve.response_bytes_per_bin",
	"serve.resolve_us", "serve.evictions",
	"estimation.prior_us_per_bin", "estimation.project_ms_per_bin", "estimation.ipf_ms_per_bin",
	"estimation.ipf_sweeps_per_bin", "estimation.degraded_ratio", "estimation.rebase_ms",
	"linalg.lsqr_iters_per_bin", "linalg.matvec_pair_us", "linalg.bytes_per_iter_computed",
	"routing.build_ms", "routing.builds", "routing.patch_ms",
	"store.get_matrix_ms", "store.hit_ratio", "store.put_ms",
	"loadgen.lateness_p99_ms", "trace.overhead_ratio",
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type report struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Host      host              `json:"host"`
	BuildS    float64           `json:"build_s"`
	Ops       map[string]int    `json:"ops"`
	Valid     bool              `json:"valid"`
	Lateness  float64           `json:"loadgen_lateness_p99_ms,omitempty"`
	Attempts  int               `json:"window_attempts"`
	Failures  []string          `json:"failures,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Stages    []stageShare      `json:"stage_self_time,omitempty"`
	SpansFile string            `json:"spans_file,omitempty"`
	Claim     *string           `json:"claim"`
}

type host struct {
	NProc             int    `json:"nproc"`
	CPU               string `json:"cpu"`
	Go                string `json:"go"`
	ServerGOMAXPROCS  int    `json:"server_gomaxprocs"`
	LoadgenGOMAXPROCS int    `json:"loadgen_gomaxprocs"`
	StoreFS           string `json:"store_fs"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("icbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: geant-online, isp100-backfill or isp-churn")
		seed    = fs.Uint64("seed", 1, "seed of the request sequence")
		seconds = fs.Int("seconds", 10, "length of the timed window in seconds")
		trace   = fs.Int("trace", 0, "1: report the per-layer metrics of a traced run instead")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("want -seconds >= 1 and -trace 0 or 1")
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	out := filepath.Join(root, ".bench_build")
	scratch := filepath.Join(out, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	window := time.Duration(*seconds) * time.Second
	in, err := w.gen(w, *seed, w.warmup+window)
	if err != nil {
		return fmt.Errorf("generate inputs: %w", err)
	}
	trials := w.setupTrials
	if *trace == 1 {
		trials = 1 // set-up time is not a per-layer metric
	}
	bin := filepath.Join(out, "icserve")
	su, err := setUp(trials, func() error { return buildServer(root, bin) },
		serverStarter(in, bin, scratch), func(s *server) (handles, error) { return register(s, in) })
	if err != nil {
		return err
	}
	defer su.srv.stop()
	setupStats, err := su.srv.stats()
	if err != nil {
		return err
	}
	opBodies, dayBodies, err := requestBodies(in, su.handles)
	if err != nil {
		return err
	}

	// Operations of every window count towards attempted and failed; the
	// metrics come from the last window.
	var (
		res                    *runResult
		attempts, sent, failed int
		failures               []string
	)
	for attempts < windowAttempts {
		attempts++
		if w.closed {
			res, err = runClosedLoop(su.srv, in, dayBodies, window)
		} else {
			res, err = runOpenLoop(su.srv, in, opBodies, window)
		}
		if err != nil {
			return err
		}
		sent, failed, failures = sent+res.attempted, failed+res.failed, append(failures, res.failures...)
		if generatorKeptUp(res) {
			break
		}
	}
	res.attempted, res.failed, res.failures = sent, failed, failures
	rss, err := su.srv.peakRSSMB()
	if err != nil {
		return err
	}
	su.srv.stop()
	for _, m := range checkSamples(res.samples) {
		res.fail(m)
	}

	rep := report{
		Workload: w.name, Seed: *seed, Trace: *trace == 1, BuildS: su.buildS,
		Host:     hostRecord(setupStats.Workers, scratch),
		Ops:      map[string]int{"sent": res.attempted, "succeeded": res.attempted - res.failed, "failed": res.failed, "checked": len(res.samples)},
		Valid:    generatorKeptUp(res),
		Lateness: percentile(res.lateness, 0.99),
		Attempts: attempts,
		Failures: res.failures,
		EndToEnd: endToEnd(w, su, res, rss, window),
	}
	if !rep.Valid {
		// The result line has no way to drop a run, and a late generator
		// is not a wrong output: the run is reported, marked invalid.
		fmt.Fprintf(os.Stderr, "icbench: invalid run: load generator fell behind schedule in all %d windows (lateness p99 %.1f ms > %d ms)\n",
			attempts, rep.Lateness, maxLatenessP99Ms)
	}
	final := result{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metric{}}
	if *trace == 1 {
		tr, err := replay(in, scratch)
		if err != nil {
			return fmt.Errorf("traced run: %w", err)
		}
		rep.PerLayer = layerMetrics(in, tr, res, deltaOf(serve.Stats{}, setupStats))
		rep.Stages = shares(tr.spans)
		rep.SpansFile = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		if err := writeSpans(filepath.Join(root, rep.SpansFile), tr.spans); err != nil {
			return err
		}
		for _, k := range perLayer {
			m := rep.PerLayer[k]
			final.Metrics[k] = metric{Value: m.Value, Unit: m.Unit}
		}
	} else {
		for _, k := range scored {
			m := rep.EndToEnd[k]
			final.Metrics[k] = metric{Value: m.Value, Unit: m.Unit}
		}
	}
	if err := printJSON(rep); err != nil {
		return err
	}
	if err := printJSON(final); err != nil {
		return err
	}
	if !final.Correct {
		return fmt.Errorf("%d of %d operations failed: %s", res.failed, res.attempted, strings.Join(res.failures, "; "))
	}
	return nil
}

func printJSON(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", data)
	return err
}

// generatorKeptUp is false when the open-loop generator sent late enough
// that its own schedule, not the server, shaped the window.
func generatorKeptUp(res *runResult) bool {
	return len(res.lateness) == 0 || percentile(res.lateness, 0.99) <= maxLatenessP99Ms
}

// endToEnd computes every end-to-end metric the workload defines.
func endToEnd(w *workload, su *setupRun, res *runResult, rss float64, window time.Duration) map[string]metric {
	perTick := cpuPerBin(res.ticks)
	m := map[string]metric{
		"setup_s":            {Value: median(su.setups), Unit: "s", N: len(su.setups)},
		"latency_p50_ms":     {Value: median(res.latencies), Unit: "ms", N: len(res.latencies)},
		"cpu_ms_per_bin":     {Value: median(perTick), Unit: "ms", N: len(perTick)},
		"server_rss_peak_mb": {Value: rss, Unit: "MB", N: 1},
		"est_rel_l2_mean":    {Value: mean(res.relL2), Unit: "ratio", N: len(res.relL2)},
	}
	if w.closed {
		m["throughput_bins_per_s"] = metric{Value: float64(res.windowBins) / window.Seconds(), Unit: "bins/s", N: res.windowBins}
		return m
	}
	if p99, ok := tailPercentile(res.latencies, 0.99); ok {
		m["latency_p99_ms"] = metric{Value: p99, Unit: "ms", N: len(res.latencies)}
	}
	m["slo_met_ratio"] = metric{Value: ratio(float64(res.sloMet), float64(res.due)), Unit: "ratio", N: res.due}
	if len(res.patchLat) > 0 {
		m["patch_to_estimate_p50_ms"] = metric{Value: median(res.patchLat), Unit: "ms", N: len(res.patchLat)}
	}
	return m
}

// layerMetrics derives the per-layer metrics from the traced replay, the
// timed window's /v1/stats deltas and the set-up's routing builds.
func layerMetrics(in *inputs, tr *traceResult, res *runResult, setup statsDelta) map[string]metric {
	d := deltaOf(res.before.stats, res.after.stats)
	c := tr.counts
	bins := float64(c.bins)
	us := func(name string) float64 { return float64(tr.self[name]) / float64(time.Microsecond) }
	m := map[string]metric{
		"serve.wire_decode_us_per_bin":   {Value: ratio(us("serve.decode"), bins), Unit: "us"},
		"serve.wire_encode_us_per_bin":   {Value: ratio(us("serve.encode"), bins), Unit: "us"},
		"serve.response_bytes_per_bin":   {Value: ratio(float64(c.responseBytes), bins), Unit: "bytes"},
		"serve.resolve_us":               {Value: meanSpan(tr.spans, "serve.resolve") * 1000, Unit: "us"},
		"serve.evictions":                {Value: float64(d.Evictions), Unit: "count"},
		"estimation.prior_us_per_bin":    {Value: ratio(us("estimation.prior"), bins), Unit: "us"},
		"estimation.project_ms_per_bin":  {Value: ratio(us("estimation.project"), bins) / 1000, Unit: "ms"},
		"estimation.ipf_ms_per_bin":      {Value: ratio(us("estimation.ipf"), bins) / 1000, Unit: "ms"},
		"estimation.ipf_sweeps_per_bin":  {Value: ratio(float64(c.sweeps), bins), Unit: "sweeps"},
		"estimation.degraded_ratio":      {Value: ratio(float64(d.DegradedBins), float64(d.Bins)), Unit: "ratio"},
		"estimation.rebase_ms":           {Value: meanSpan(tr.spans, "estimation.rebase"), Unit: "ms"},
		"linalg.lsqr_iters_per_bin":      {Value: ratio(float64(d.LSQRIterations), float64(d.Bins)), Unit: "iters"},
		"linalg.matvec_pair_us":          {Value: tr.matvecPairUs, Unit: "us"},
		"linalg.bytes_per_iter_computed": {Value: bytesPerIter(in.topos[0].rm), Unit: "bytes"},
		"routing.build_ms":               {Value: meanSpan(tr.spans, "routing.build"), Unit: "ms"},
		"routing.builds":                 {Value: float64(setup.RoutingBuilds), Unit: "count"},
		"routing.patch_ms":               {Value: meanSpan(tr.spans, "routing.patch"), Unit: "ms"},
		"store.get_matrix_ms":            {Value: meanSpan(tr.spans, "store.get_matrix"), Unit: "ms"},
		"store.hit_ratio":                {Value: ratio(float64(d.StoreHits), float64(d.StoreHits+d.StoreMisses)), Unit: "ratio"},
		"store.put_ms":                   {Value: meanSpan(tr.spans, "store.put_matrix"), Unit: "ms"},
		"loadgen.lateness_p99_ms":        {Value: percentile(res.lateness, 0.99), Unit: "ms", N: len(res.lateness)},
		"trace.overhead_ratio":           {Value: tr.overheadRatio, Unit: "ratio"},
	}
	return m
}

// hostRecord describes the machine every result was measured on.
func hostRecord(serverProcs int, storeDir string) host {
	h := host{
		NProc: runtime.NumCPU(), Go: runtime.Version(),
		ServerGOMAXPROCS: serverProcs, LoadgenGOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: "unknown", StoreFS: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(storeDir, &st); err == nil {
		h.StoreFS = fsName(st.Type)
	}
	return h
}

func fsName(magic int64) string {
	switch magic {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", magic)
}
