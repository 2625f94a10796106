package main

import (
	"fmt"
	"os/exec"
	"reflect"
	"testing"
	"time"
)

// fakeHandles stands in for the server-issued prior handles.
func fakeHandles(in *inputs) handles {
	h := make(handles, len(in.topos))
	for k, t := range in.topos {
		for p := range t.states {
			h[k] = append(h[k], fmt.Sprintf("pr-%s-%d", t.key, p))
		}
	}
	return h
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			gen := func(seed uint64) (*inputs, [][]byte, map[int][]byte) {
				in, err := w.gen(w, seed, time.Second)
				if err != nil {
					t.Fatal(err)
				}
				ops, days, err := requestBodies(in, fakeHandles(in))
				if err != nil {
					t.Fatal(err)
				}
				return in, ops, days
			}
			a, aOps, aDays := gen(7)
			b, bOps, bDays := gen(7)
			if !reflect.DeepEqual(a.ops, b.ops) || !reflect.DeepEqual(a.days, b.days) {
				t.Fatal("same seed, different schedule")
			}
			if !reflect.DeepEqual(aOps, bOps) || !reflect.DeepEqual(aDays, bDays) {
				t.Fatal("same seed, different request bytes")
			}
			c, cOps, cDays := gen(8)
			if reflect.DeepEqual(a.ops, c.ops) && reflect.DeepEqual(a.days, c.days) &&
				reflect.DeepEqual(aOps, cOps) && reflect.DeepEqual(aDays, cDays) {
				t.Fatal("different seeds, identical requests")
			}
		})
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{999, 0.99, false}, {1000, 0.99, true}, {99, 0.9, false}, {100, 0.9, true}, {0, 0.99, false},
	} {
		v, ok := tailPercentile(seq(c.n), c.q)
		if ok != c.ok {
			t.Errorf("n=%d q=%v: ok=%v, want %v", c.n, c.q, ok, c.ok)
		}
		if ok && v != float64(c.n)*c.q {
			t.Errorf("n=%d q=%v: %v, want %v", c.n, c.q, v, float64(c.n)*c.q)
		}
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
}

func TestStatsDeltas(t *testing.T) {
	before, err := parseStats([]byte(`{"workers":2,"topologies":64,"topologies_evicted":3,"registrations_evicted":1,
		"bins":100,"bin_errors":1,"lsqr_iterations":9000,"degraded_bins":10,"routing_builds":80,
		"store_hits":40,"store_misses":2,"store_writes":200,"requests_shed":0,"panics":0}`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseStats([]byte(`{"workers":2,"topologies":64,"topologies_evicted":13,"registrations_evicted":6,
		"bins":350,"bin_errors":1,"lsqr_iterations":39000,"degraded_bins":35,"routing_builds":80,
		"store_hits":140,"store_misses":7,"store_writes":260,"requests_shed":0,"panics":0}`))
	if err != nil {
		t.Fatal(err)
	}
	want := statsDelta{Bins: 250, LSQRIterations: 30000, DegradedBins: 25, Evictions: 15,
		StoreHits: 100, StoreMisses: 5}
	if got := deltaOf(before, after); got != want {
		t.Errorf("delta = %+v, want %+v", got, want)
	}
	if _, err := parseStats([]byte(`{"bins":"many"}`)); err == nil {
		t.Error("malformed stats parsed")
	}
}

func TestCPUPerBinSteps(t *testing.T) {
	snap := func(cpuMs int, bins int64) snapshot {
		var sn snapshot
		sn.cpu = time.Duration(cpuMs) * time.Millisecond
		sn.stats.Bins = bins
		return sn
	}
	// The third step completed no bin and is skipped, not counted as 0.
	got := cpuPerBin([]snapshot{snap(0, 0), snap(500, 10), snap(1100, 30), snap(1200, 30), snap(2000, 50)})
	if want := []float64{50, 30, 40}; !reflect.DeepEqual(got, want) {
		t.Errorf("cpuPerBin = %v, want %v", got, want)
	}
	if m := median(got); m != 40 {
		t.Errorf("median = %v, want 40", m)
	}
}

// fakeServer is a stand-in process that stop can terminate.
func fakeServer(t *testing.T) *server {
	cmd := exec.Command("sleep", "30")
	if err := cmd.Start(); err != nil {
		t.Skipf("no sleep binary: %v", err)
	}
	s := &server{cmd: cmd, load: newClient(1), ctl: newClient(1), exited: make(chan struct{})}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	return s
}

func TestSetupClockExcludesBuild(t *testing.T) {
	const (
		buildTime = 400 * time.Millisecond
		startTime = 20 * time.Millisecond
		regTime   = 30 * time.Millisecond
	)
	var started []*server
	run, err := setUp(3,
		func() error { time.Sleep(buildTime); return nil },
		func(int) (*server, error) {
			time.Sleep(startTime)
			s := fakeServer(t)
			started = append(started, s)
			return s, nil
		},
		func(*server) (handles, error) { time.Sleep(regTime); return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer run.srv.stop()
	if run.buildS < buildTime.Seconds() {
		t.Errorf("build_s = %v, want >= %v", run.buildS, buildTime.Seconds())
	}
	if len(run.setups) != 3 {
		t.Fatalf("%d set-up times, want 3", len(run.setups))
	}
	for _, s := range run.setups {
		if s < (startTime+regTime).Seconds() || s >= buildTime.Seconds() {
			t.Errorf("set-up %.3fs: want start+register only, never the build", s)
		}
	}
	for _, s := range started[:2] {
		select {
		case <-s.exited:
		default:
			t.Error("an earlier set-up trial's server is still running")
		}
	}
	if run.srv != started[2] {
		t.Error("the last trial's server is not the one kept")
	}
}

func TestSampledIsSeededAndSparse(t *testing.T) {
	hits := 0
	for i := 0; i < 10000; i++ {
		if sampled(3, i, 20) != sampled(3, i, 20) {
			t.Fatal("sampling is not a function of (seed, id)")
		}
		if sampled(3, i, 20) {
			hits++
		}
	}
	if hits < 400 || hits > 600 {
		t.Errorf("%d of 10000 sampled at 1 in 20", hits)
	}
}
