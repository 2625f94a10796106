package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ictm/internal/estimation"
	"ictm/internal/routing"
	"ictm/internal/topology"
)

// putJSON PUTs a JSON body and returns the response.
func putJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// postJSON POSTs a JSON body and returns the response.
func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// decodeInto decodes a response body, failing the test on error.
func decodeInto(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPV2ResourceLifecycle drives the register → list → estimate →
// conflict flow end to end over the wire, asserting the typed status
// codes (201/200/400/404/409).
func TestHTTPV2ResourceLifecycle(t *testing.T) {
	sc, d := testScenario(t)
	bins := testBins(t, sc, d)[:2]
	srv, _ := newTestServer(t, 2, sc)

	// Register a topology: 201, then 200 on the idempotent repeat.
	resp := putJSON(t, srv.URL+"/v2/topologies/isp12", sc.Topology())
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT topology: %d", resp.StatusCode)
	}
	var treg TopologyRegistration
	decodeInto(t, resp, &treg)
	if treg.Key != "isp12" || treg.N != sc.N || !treg.Created {
		t.Fatalf("registration reply: %+v", treg)
	}
	if resp := putJSON(t, srv.URL+"/v2/topologies/isp12", sc.Topology()); resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat PUT topology: %d", resp.StatusCode)
	}
	// Conflicting re-registration: 409.
	if resp := putJSON(t, srv.URL+"/v2/topologies/isp12", ringSpec(9)); resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting PUT topology: %d", resp.StatusCode)
	}
	// Malformed spec: 400.
	if resp := putJSON(t, srv.URL+"/v2/topologies/bad", map[string]any{"family": "bogus", "n": 3}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed PUT topology: %d", resp.StatusCode)
	}
	// A link weight whose path sums could overflow: 400 at registration.
	line := topology.Spec{Family: topology.FamilyExplicit, N: 3, Edges: []topology.EdgeSpec{
		{From: 0, To: 1, Weight: 1e308}, {From: 1, To: 0, Weight: 1e308},
		{From: 1, To: 2, Weight: 1e308}, {From: 2, To: 1, Weight: 1e308},
	}}
	if resp := putJSON(t, srv.URL+"/v2/topologies/huge", line); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("PUT topology with weight 1e308: %d", resp.StatusCode)
	}

	// Register a prior: 201 with a handle, 200 on repeat.
	resp = postJSON(t, srv.URL+"/v2/topologies/isp12/priors", estimation.PriorState{Name: "ic-stable-f", F: 0.25})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST prior: %d", resp.StatusCode)
	}
	var preg PriorRegistration
	decodeInto(t, resp, &preg)
	if preg.Handle == "" || preg.Topology != "isp12" || preg.Name != "ic-stable-f" || !preg.Created {
		t.Fatalf("prior reply: %+v", preg)
	}
	if resp := postJSON(t, srv.URL+"/v2/topologies/isp12/priors", estimation.PriorState{Name: "ic-stable-f", F: 0.25}); resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat POST prior: %d", resp.StatusCode)
	}
	// Unknown topology: 404; malformed state: 400.
	if resp := postJSON(t, srv.URL+"/v2/topologies/nope/priors", estimation.PriorState{Name: "gravity"}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST prior to unknown topology: %d", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/v2/topologies/isp12/priors", estimation.PriorState{Name: "bogus"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST malformed prior: %d", resp.StatusCode)
	}

	// List: the registered topology with its prior count.
	resp, err := http.Get(srv.URL + "/v2/topologies")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list TopologyList
	decodeInto(t, resp, &list)
	if len(list.Topologies) != 1 || list.Topologies[0].Key != "isp12" ||
		list.Topologies[0].N != sc.N || list.Topologies[0].Priors != 1 {
		t.Fatalf("topology list: %+v", list)
	}

	// Estimate by handle.
	resp = postJSON(t, srv.URL+"/v2/estimate", EstimateRequest{
		SessionSpec: SessionSpec{Topology: "isp12", Prior: preg.Handle},
		Bins:        bins,
	})
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST estimate: %d: %s", resp.StatusCode, body)
	}
	var got Response
	decodeInto(t, resp, &got)
	if len(got.Results) != len(bins) {
		t.Fatalf("%d results for %d bins", len(got.Results), len(bins))
	}
	for i, est := range got.Results {
		if est.Error != "" || est.T != i || est.N != sc.N {
			t.Fatalf("result %d: %+v", i, est)
		}
	}
	// Unknown handles: 404.
	if resp := postJSON(t, srv.URL+"/v2/estimate", EstimateRequest{
		SessionSpec: SessionSpec{Topology: "isp12", Prior: "pr-bogus"},
	}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("estimate with unknown prior: %d", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/v2/estimate", EstimateRequest{
		SessionSpec: SessionSpec{Topology: "nope", Prior: preg.Handle},
	}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("estimate with unknown topology: %d", resp.StatusCode)
	}
}

// TestHTTPV2RejectsUnservablePref: a stable-fP prior whose preference
// vector sums to zero would fail every bin, so registration refuses it
// with 400 and nothing is registered.
func TestHTTPV2RejectsUnservablePref(t *testing.T) {
	sc, _ := testScenario(t)
	srv, eng := newTestServer(t, 1, sc)
	if resp := putJSON(t, srv.URL+"/v2/topologies/isp12", sc.Topology()); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT topology: %d", resp.StatusCode)
	}
	resp := postJSON(t, srv.URL+"/v2/topologies/isp12/priors",
		estimation.PriorState{Name: "ic-stable-fP", F: 0.25, Pref: make([]float64, sc.N)})
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "pref sums to 0") {
		t.Fatalf("POST all-zero pref: %d %s, want 400 naming the preference sum", resp.StatusCode, body)
	}
	if info, err := eng.Topology("isp12"); err != nil || info.Priors != 0 {
		t.Fatalf("topology after rejected prior: %+v, %v; want no priors", info, err)
	}
}

// TestHTTPV2RoundTripBitwise is the acceptance criterion at the handler
// level: register topology + prior by handle, stream bins over NDJSON,
// and assert every served estimate is bit-identical to in-process
// Estimator.EstimateBin, for workers 1 and 8.
func TestHTTPV2RoundTripBitwise(t *testing.T) {
	sc, d := testScenario(t)
	bins := testBins(t, sc, d)
	state := estimation.PriorState{Name: "ic-stable-f", F: 0.25}

	// In-process reference: the session API over the same resources.
	g, err := sc.Topology().Build()
	if err != nil {
		t.Fatal(err)
	}
	rm, err := routing.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := estimation.NewEstimator(rm)
	if err != nil {
		t.Fatal(err)
	}
	prior, err := ref.RegisterPrior(state)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 8} {
		srv, _ := newTestServer(t, workers, sc)
		if resp := putJSON(t, srv.URL+"/v2/topologies/rt", sc.Topology()); resp.StatusCode != http.StatusCreated {
			t.Fatalf("workers=%d: PUT topology %d", workers, resp.StatusCode)
		}
		resp := postJSON(t, srv.URL+"/v2/topologies/rt/priors", state)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("workers=%d: POST prior %d", workers, resp.StatusCode)
		}
		var preg PriorRegistration
		decodeInto(t, resp, &preg)

		var body bytes.Buffer
		enc := json.NewEncoder(&body)
		if err := enc.Encode(EstimateRequest{SessionSpec: SessionSpec{Topology: "rt", Prior: preg.Handle}}); err != nil {
			t.Fatal(err)
		}
		for _, b := range bins {
			if err := enc.Encode(b); err != nil {
				t.Fatal(err)
			}
		}
		stream, err := http.Post(srv.URL+"/v2/estimate", NDJSONContentType, &body)
		if err != nil {
			t.Fatal(err)
		}
		if stream.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(stream.Body)
			stream.Body.Close()
			t.Fatalf("workers=%d: stream status %d: %s", workers, stream.StatusCode, b)
		}
		sc2 := bufio.NewScanner(stream.Body)
		sc2.Buffer(make([]byte, 0, 1<<20), 1<<26)
		i := 0
		for sc2.Scan() {
			var est Estimate
			if err := json.Unmarshal(sc2.Bytes(), &est); err != nil {
				t.Fatalf("workers=%d line %d: %v", workers, i, err)
			}
			if est.Error != "" || est.T != i {
				t.Fatalf("workers=%d line %d: t=%d err=%q", workers, i, est.T, est.Error)
			}
			want, diag, err := ref.EstimateBin(prior, i, bins[i].Y)
			if err != nil {
				t.Fatal(err)
			}
			// LSQRIterations is local-only (json:"-"): zero on the wire.
			diag.LSQRIterations = 0
			if est.Diag != diag {
				t.Fatalf("workers=%d bin %d: diag %+v vs %+v", workers, i, est.Diag, diag)
			}
			for k, v := range est.Estimate {
				if math.Float64bits(v) != math.Float64bits(want.Vec()[k]) {
					t.Fatalf("workers=%d bin %d flow %d drifted across the v2 wire", workers, i, k)
				}
			}
			i++
		}
		stream.Body.Close()
		if err := sc2.Err(); err != nil {
			t.Fatal(err)
		}
		if i != len(bins) {
			t.Fatalf("workers=%d: got %d lines for %d bins", workers, i, len(bins))
		}
	}
}

// TestHTTPErrorMapping is the sentinel-error contract of httpError:
// each engine sentinel maps onto its typed status instead of collapsing
// to one code.
func TestHTTPErrorMapping(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"stream", fmt.Errorf("wrap: %w", ErrStream), http.StatusBadRequest},
		{"bad bin", fmt.Errorf("wrap: %w", ErrBadBin), http.StatusBadRequest},
		{"not found", fmt.Errorf("wrap: %w", ErrNotFound), http.StatusNotFound},
		{"conflict", fmt.Errorf("wrap: %w", ErrConflict), http.StatusConflict},
		{"draining", fmt.Errorf("wrap: %w", ErrDraining), http.StatusServiceUnavailable},
		{"other", errors.New("boom"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		httpError(rec, tc.err)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, rec.Code, tc.want)
		}
		if !strings.Contains(rec.Body.String(), tc.err.Error()) {
			t.Errorf("%s: body %q lost the error text", tc.name, rec.Body.String())
		}
	}
}

// TestHTTPV2Draining: after Drain, v2 registrations and estimates get
// 503 (so a load balancer retries elsewhere) while /healthz stays up
// for the process supervisor.
func TestHTTPV2Draining(t *testing.T) {
	sc, _ := testScenario(t)
	srv, engine := newTestServer(t, 1, sc)
	if resp := putJSON(t, srv.URL+"/v2/topologies/isp12", sc.Topology()); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT topology: %d", resp.StatusCode)
	}
	engine.Drain()
	if resp := putJSON(t, srv.URL+"/v2/topologies/other", sc.Topology()); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("PUT while draining: %d", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/v2/topologies/isp12/priors", estimation.PriorState{Name: "gravity"}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST prior while draining: %d", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/v2/estimate", EstimateRequest{
		SessionSpec: SessionSpec{Topology: "isp12", Prior: "pr-x"},
	}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("estimate while draining: %d", resp.StatusCode)
	}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz while draining: %d", resp.StatusCode)
	}
}
