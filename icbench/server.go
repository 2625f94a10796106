package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ictm/internal/serve"
)

// buildServer compiles cmd/icserve from the checkout at root.
func buildServer(root, bin string) error {
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/icserve")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build icserve: %w", err)
	}
	return nil
}

// server is one running icserve process.
type server struct {
	cmd  *exec.Cmd
	base string
	// load carries the workload (at most two connections in flight);
	// ctl carries set-up and /v1/stats reads on connections of its own.
	load, ctl *http.Client
	exited    chan struct{}
	waitErr   error

	mu     sync.Mutex
	stderr bytes.Buffer
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// startServer execs icserve on a free loopback port and returns once it
// reports its listening address.
func startServer(bin string, args ...string) (*server, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start icserve: %w", err)
	}
	s := &server{cmd: cmd, load: newClient(2), ctl: newClient(2), exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.stderr.WriteString(line + "\n")
			s.mu.Unlock()
			if rest, ok := strings.CutPrefix(line, "icserve: listening on "); ok {
				select {
				case addr <- strings.Fields(rest)[0]:
				default:
				}
			}
		}
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
		return s, nil
	case <-s.exited:
		return nil, fmt.Errorf("icserve exited before listening: %v\n%s", s.waitErr, s.log())
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, errors.New("icserve did not report its address within 30s")
	}
}

func (s *server) log() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stderr.String()
}

// stop terminates the server gracefully, or kills it after five seconds,
// and waits until the process has exited.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // already exited: nothing to do
	select {
	case <-s.exited:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	s.load.CloseIdleConnections()
	s.ctl.CloseIdleConnections()
}

func (s *server) healthy() error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := s.ctl.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for reuse
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("icserve not healthy after 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// call sends one request and returns the reply body, failing on any
// non-2xx status.
func call(ctx context.Context, c *http.Client, method, url, ctype string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, strings.TrimSpace(string(data)))
	}
	return data, nil
}

func (s *server) stats() (serve.Stats, error) {
	body, err := call(context.Background(), s.ctl, http.MethodGet, s.base+"/v1/stats", "", nil)
	if err != nil {
		return serve.Stats{}, err
	}
	return parseStats(body)
}

// cpuTime is the server's CPU time so far: the sum over its threads of
// the nanoseconds each spent on a CPU (/proc/<pid>/task/<tid>/schedstat),
// which unlike /proc/<pid>/stat's 10 ms ticks resolves a short step.
func (s *server) cpuTime() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", s.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum time.Duration
	for _, t := range tasks {
		data, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if errors.Is(err, os.ErrNotExist) {
			continue // the thread exited since the listing
		}
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(data))
		if len(f) < 1 {
			return 0, fmt.Errorf("short schedstat: %q", data)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}

// peakRSSMB is the server's VmHWM in MB.
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// snapshot is the server state read at a timed-window boundary or tick.
type snapshot struct {
	at    time.Time
	cpu   time.Duration
	stats serve.Stats
}

func (s *server) snapshot() (snapshot, error) {
	cpu, err := s.cpuTime()
	if err != nil {
		return snapshot{}, err
	}
	st, err := s.stats()
	return snapshot{at: time.Now(), cpu: cpu, stats: st}, err
}

// cpuTick is the step at which a timed window is sampled: cpu_ms_per_bin
// is the median over the window's one-second steps, so a few seconds in
// which other tenants of a shared host slowed the server do not move it.
const cpuTick = time.Second

// sampleWindow snapshots the server at from and then every cpuTick until
// to.
func (s *server) sampleWindow(from, to time.Time) ([]snapshot, error) {
	var snaps []snapshot
	for at := from; !at.After(to); at = at.Add(cpuTick) {
		time.Sleep(time.Until(at))
		sn, err := s.snapshot()
		if err != nil {
			return nil, err
		}
		snaps = append(snaps, sn)
	}
	return snaps, nil
}

// register performs a workload's registrations over two connections and
// returns the server-issued prior handles.
func register(s *server, in *inputs) (handles, error) {
	h := make(handles, len(in.topos))
	errs := make([]error, len(in.topos))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(in.topos); k += 2 {
				h[k], errs[k] = registerTopo(s, in.topos[k])
			}
		}(w)
	}
	wg.Wait()
	return h, errors.Join(errs...)
}

func registerTopo(s *server, t *topoInput) ([]string, error) {
	ctx := context.Background()
	spec, err := json.Marshal(t.spec)
	if err != nil {
		return nil, err
	}
	if _, err := call(ctx, s.ctl, http.MethodPut, s.base+"/v2/topologies/"+t.key, "application/json", spec); err != nil {
		return nil, err
	}
	var hs []string
	for _, st := range t.states {
		h, err := registerPrior(ctx, s.ctl, s.base, t.key, st)
		if err != nil {
			return nil, err
		}
		hs = append(hs, h)
	}
	return hs, nil
}

func registerPrior(ctx context.Context, c *http.Client, base, key string, st any) (string, error) {
	body, err := json.Marshal(st)
	if err != nil {
		return "", err
	}
	reply, err := call(ctx, c, http.MethodPost, base+"/v2/topologies/"+key+"/priors", "application/json", body)
	if err != nil {
		return "", err
	}
	var reg serve.PriorRegistration
	if err := json.Unmarshal(reply, &reg); err != nil {
		return "", err
	}
	return reg.Handle, nil
}

// setupRun is a server that finished set-up, with the time each set-up
// trial took and the time the build took.
type setupRun struct {
	srv     *server
	handles handles
	buildS  float64
	setups  []float64 // seconds, one per trial
}

// setUp builds the server once, then starts and sets it up trials times;
// every trial but the last is stopped. Each trial's clock runs from just
// before exec until the last registration (with its routing builds) is
// done, so the build is never inside it.
func setUp(trials int, build func() error, start func(trial int) (*server, error), reg func(*server) (handles, error)) (*setupRun, error) {
	t0 := time.Now()
	if err := build(); err != nil {
		return nil, err
	}
	run := &setupRun{buildS: time.Since(t0).Seconds()}
	for i := 0; i < trials; i++ {
		t0 := time.Now()
		srv, err := start(i)
		if err != nil {
			return nil, err
		}
		h, err := reg(srv)
		d := time.Since(t0)
		if err != nil {
			srv.stop()
			return nil, fmt.Errorf("set-up: %w\n%s", err, srv.log())
		}
		run.setups = append(run.setups, d.Seconds())
		if i < trials-1 {
			srv.stop()
			continue
		}
		run.srv, run.handles = srv, h
	}
	return run, nil
}

// serverStarter returns the set-up trial starter for a workload: every
// trial gets a fresh, empty store directory so none warm-starts from the
// previous one.
func serverStarter(in *inputs, bin, scratch string) func(int) (*server, error) {
	return func(trial int) (*server, error) {
		var args []string
		if in.w.store {
			dir := filepath.Join(scratch, fmt.Sprintf("store-%d", trial))
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			args = append(args, "-store-dir", dir)
		}
		srv, err := startServer(bin, args...)
		if err != nil {
			return nil, err
		}
		if err := srv.healthy(); err != nil {
			srv.stop()
			return nil, err
		}
		return srv, nil
	}
}
