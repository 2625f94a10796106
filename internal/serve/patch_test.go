package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strings"
	"testing"

	"ictm/internal/estimation"
	"ictm/internal/routing"
	"ictm/internal/topology"
)

// removableDelta finds a bidirectional link whose removal keeps the
// graph connected, returned as the two-op down delta.
func removableDelta(t *testing.T, g *topology.Graph) topology.Delta {
	t.Helper()
	for _, e := range g.Edges() {
		if e.From > e.To {
			continue
		}
		d := topology.Delta{Ops: []topology.DeltaOp{
			{Op: topology.OpRemove, From: e.From, To: e.To},
			{Op: topology.OpRemove, From: e.To, To: e.From},
		}}
		if ng, _, err := g.Apply(d); err == nil && ng.Connected() {
			return d
		}
	}
	t.Fatal("no safely removable link in test topology")
	return topology.Delta{}
}

// TestEnginePatchTopologyLifecycle drives the mutation flow end to end:
// patch a registered topology, estimate against the derived key, and
// assert the result is bit-identical to a from-scratch rebuild — with
// the patched solver entering the pool warm and the base's priors
// carried over.
func TestEnginePatchTopologyLifecycle(t *testing.T) {
	sc, d := testScenario(t)
	engine := NewEngine(1)
	if _, _, err := engine.RegisterTopology("base", sc.Topology()); err != nil {
		t.Fatalf("RegisterTopology: %v", err)
	}
	gravity := estimation.PriorState{Name: "gravity"}
	if _, _, err := engine.RegisterPrior("base", gravity); err != nil {
		t.Fatalf("RegisterPrior: %v", err)
	}

	g, err := sc.Topology().Build()
	if err != nil {
		t.Fatal(err)
	}
	down := removableDelta(t, g)

	res, err := engine.PatchTopology("base", down)
	if err != nil {
		t.Fatalf("PatchTopology: %v", err)
	}
	if res.Base != "base" || res.Version != 1 || res.N != sc.N || !strings.HasPrefix(res.Key, "tp-") {
		t.Fatalf("patch result: %+v", res)
	}
	// Idempotent: the same delta resolves to the same derived key.
	res2, err := engine.PatchTopology("base", down)
	if err != nil {
		t.Fatalf("repeat PatchTopology: %v", err)
	}
	if res2 != res {
		t.Fatalf("repeat patch: %+v, want %+v", res2, res)
	}

	// The base's gravity prior was carried: re-registering the identical
	// state under the derived key is a no-op (created=false).
	handle, created, err := engine.RegisterPrior(res.Key, gravity)
	if err != nil {
		t.Fatalf("RegisterPrior(derived): %v", err)
	}
	if created {
		t.Fatal("carried prior re-created under the derived key")
	}

	// Lineage is visible in the registry.
	info, err := engine.Topology(res.Key)
	if err != nil {
		t.Fatalf("Topology(derived): %v", err)
	}
	if info.Version != 1 || info.Base != "base" || info.Priors != 1 || info.N != sc.N {
		t.Fatalf("derived listing: %+v", info)
	}
	if base, err := engine.Topology("base"); err != nil || base.Version != 0 || base.Base != "" {
		t.Fatalf("base listing: %+v err=%v", base, err)
	}
	if _, err := engine.Topology("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Topology(unknown): %v", err)
	}

	// In-process reference: full rebuild on the mutated graph.
	mg, _, err := g.Apply(down)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := routing.Build(mg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := estimation.NewEstimator(rm)
	if err != nil {
		t.Fatal(err)
	}
	bins := make([]Bin, d.Series.Len())
	for i := range bins {
		y, err := rm.LinkLoads(d.Series.At(i))
		if err != nil {
			t.Fatal(err)
		}
		bins[i] = Bin{T: i, Y: y}
	}

	// A session against the derived key must reuse the warm patched
	// solver, not build a new pool entry.
	pooled := engine.Stats().Topologies
	got, err := engine.EstimateBatch(context.Background(), SessionSpec{Topology: res.Key, Prior: handle}, bins)
	if err != nil {
		t.Fatalf("EstimateBatch(derived): %v", err)
	}
	if now := engine.Stats().Topologies; now != pooled {
		t.Fatalf("session against the derived key grew the solver pool: %d -> %d", pooled, now)
	}
	for i, est := range got {
		if est.Error != "" {
			t.Fatalf("bin %d: %s", i, est.Error)
		}
		want, diag, err := ref.EstimateBin(estimation.GravityPrior{}, i, bins[i].Y)
		if err != nil {
			t.Fatal(err)
		}
		if est.Diag != diag {
			t.Fatalf("bin %d: diag %+v vs rebuilt %+v", i, est.Diag, diag)
		}
		for k, v := range est.Estimate {
			if math.Float64bits(v) != math.Float64bits(want.Vec()[k]) {
				t.Fatalf("bin %d flow %d: patched-and-rebased %x vs rebuilt %x",
					i, k, math.Float64bits(v), math.Float64bits(want.Vec()[k]))
			}
		}
	}
}

// TestEnginePatchTopologyConvergentHistories: delta histories reaching
// the same topology resolve to the same derived key, whichever base
// they were applied from.
func TestEnginePatchTopologyConvergentHistories(t *testing.T) {
	sc, _ := testScenario(t)
	engine := NewEngine(1)
	if _, _, err := engine.RegisterTopology("base", sc.Topology()); err != nil {
		t.Fatalf("RegisterTopology: %v", err)
	}
	g, err := sc.Topology().Build()
	if err != nil {
		t.Fatal(err)
	}
	e0 := g.Edges()[0]
	reweight := func(w float64) topology.Delta {
		return topology.Delta{Ops: []topology.DeltaOp{
			{Op: topology.OpReweight, From: e0.From, To: e0.To, Weight: w},
		}}
	}

	direct, err := engine.PatchTopology("base", reweight(5))
	if err != nil {
		t.Fatalf("direct patch: %v", err)
	}
	step1, err := engine.PatchTopology("base", reweight(3))
	if err != nil {
		t.Fatalf("step 1: %v", err)
	}
	if step1.Key == direct.Key {
		t.Fatalf("distinct topologies share key %q", step1.Key)
	}
	step2, err := engine.PatchTopology(step1.Key, reweight(5))
	if err != nil {
		t.Fatalf("step 2: %v", err)
	}
	if step2.Key != direct.Key {
		t.Fatalf("convergent histories diverge: %q vs %q", step2.Key, direct.Key)
	}
	if step2.Base != step1.Key {
		t.Fatalf("step 2 base = %q, want %q", step2.Base, step1.Key)
	}
}

// TestEnginePatchTopologyErrors: unknown bases 404, invalid and
// disconnecting deltas 400, draining 503.
func TestEnginePatchTopologyErrors(t *testing.T) {
	sc, _ := testScenario(t)
	engine := NewEngine(1)
	if _, _, err := engine.RegisterTopology("base", sc.Topology()); err != nil {
		t.Fatalf("RegisterTopology: %v", err)
	}
	// A minimal two-node topology whose only return path can be cut.
	pair := topology.Spec{Family: topology.FamilyExplicit, N: 2, Edges: []topology.EdgeSpec{
		{From: 0, To: 1, Weight: 1}, {From: 1, To: 0, Weight: 1},
	}}
	if _, _, err := engine.RegisterTopology("pair", pair); err != nil {
		t.Fatalf("RegisterTopology(pair): %v", err)
	}

	if _, err := engine.PatchTopology("ghost", topology.Delta{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown base: %v", err)
	}
	bad := topology.Delta{Ops: []topology.DeltaOp{{Op: topology.OpRemove, From: 0, To: 0}}}
	if _, err := engine.PatchTopology("base", bad); !errors.Is(err, ErrStream) {
		t.Fatalf("invalid delta: %v", err)
	}
	cut := topology.Delta{Ops: []topology.DeltaOp{{Op: topology.OpRemove, From: 1, To: 0}}}
	if _, err := engine.PatchTopology("pair", cut); !errors.Is(err, ErrStream) {
		t.Fatalf("disconnecting delta: %v", err)
	}

	engine.Drain()
	if _, err := engine.PatchTopology("base", topology.Delta{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("draining: %v", err)
	}
}

// patchJSON PATCHes a JSON body and returns the response.
func patchJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPatch, url, bytes.NewReader(data))
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

// TestHTTPV2PatchAndGetTopology exercises the mutation surface over the
// wire: PATCH derives a key (200), GET resolves both the base and the
// derived topology (404 for unknown keys), and the derived key serves
// estimates with a carried prior.
func TestHTTPV2PatchAndGetTopology(t *testing.T) {
	sc, d := testScenario(t)
	srv, _ := newTestServer(t, 1, sc)
	if resp := putJSON(t, srv.URL+"/v2/topologies/live", sc.Topology()); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT topology: %d", resp.StatusCode)
	}
	resp := postJSON(t, srv.URL+"/v2/topologies/live/priors", estimation.PriorState{Name: "gravity"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST prior: %d", resp.StatusCode)
	}
	var preg PriorRegistration
	decodeInto(t, resp, &preg)

	g, err := sc.Topology().Build()
	if err != nil {
		t.Fatal(err)
	}
	down := removableDelta(t, g)

	resp = patchJSON(t, srv.URL+"/v2/topologies/live", down)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PATCH topology: %d", resp.StatusCode)
	}
	var res PatchResult
	decodeInto(t, resp, &res)
	if res.Base != "live" || res.Version != 1 || res.N != sc.N || !strings.HasPrefix(res.Key, "tp-") {
		t.Fatalf("patch reply: %+v", res)
	}

	// GET single: base, derived, and a 404 miss.
	resp, err = http.Get(srv.URL + "/v2/topologies/" + res.Key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET derived topology: %d", resp.StatusCode)
	}
	var info TopologyInfo
	decodeInto(t, resp, &info)
	if info.Key != res.Key || info.Base != "live" || info.Version != 1 || info.Priors != 1 {
		t.Fatalf("derived topology info: %+v", info)
	}
	if resp, err := http.Get(srv.URL + "/v2/topologies/live"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET base topology: %v %d", err, resp.StatusCode)
	}
	if resp, err := http.Get(srv.URL + "/v2/topologies/ghost"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown topology: %v %d", err, resp.StatusCode)
	}

	// PATCH errors over the wire: 404 unknown base, 400 bad delta and
	// undecodable body.
	if resp := patchJSON(t, srv.URL+"/v2/topologies/ghost", down); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("PATCH unknown topology: %d", resp.StatusCode)
	}
	bad := topology.Delta{Ops: []topology.DeltaOp{{Op: "teleport", From: 0, To: 1}}}
	if resp := patchJSON(t, srv.URL+"/v2/topologies/live", bad); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("PATCH invalid delta: %d", resp.StatusCode)
	}
	e := g.Edges()[0]
	huge := topology.Delta{Ops: []topology.DeltaOp{{Op: topology.OpReweight, From: e.From, To: e.To, Weight: 1e308}}}
	if resp := patchJSON(t, srv.URL+"/v2/topologies/live", huge); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("PATCH reweight to 1e308: %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodPatch, srv.URL+"/v2/topologies/live", strings.NewReader("{"))
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("PATCH garbage body: %v %d", err, resp.StatusCode)
	}

	// The derived topology serves estimates with the carried prior, and
	// the listing shows its lineage next to the unversioned base.
	mg, _, err := g.Apply(down)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := routing.Build(mg)
	if err != nil {
		t.Fatal(err)
	}
	y, err := rm.LinkLoads(d.Series.At(0))
	if err != nil {
		t.Fatal(err)
	}
	// Handles are bound to their topology key, so the carried prior has
	// its own handle under the derived key. Re-registering the same
	// state there is a no-op (200, not 201) that reveals it.
	resp = postJSON(t, srv.URL+"/v2/topologies/"+res.Key+"/priors", estimation.PriorState{Name: "gravity"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST carried prior: %d (want 200 no-op)", resp.StatusCode)
	}
	var carried PriorRegistration
	decodeInto(t, resp, &carried)
	if carried.Created || carried.Handle == preg.Handle {
		t.Fatalf("carried prior registration: %+v (base handle %q)", carried, preg.Handle)
	}
	resp = postJSON(t, srv.URL+"/v2/estimate", EstimateRequest{
		SessionSpec: SessionSpec{Topology: res.Key, Prior: carried.Handle},
		Bins:        []Bin{{T: 0, Y: y}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate against derived key: %d", resp.StatusCode)
	}
	var got Response
	decodeInto(t, resp, &got)
	if len(got.Results) != 1 || got.Results[0].Error != "" {
		t.Fatalf("derived estimate: %+v", got.Results)
	}

	resp, err = http.Get(srv.URL + "/v2/topologies")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list TopologyList
	decodeInto(t, resp, &list)
	if len(list.Topologies) != 2 {
		t.Fatalf("listing %d topologies, want 2", len(list.Topologies))
	}
	for _, ti := range list.Topologies {
		switch ti.Key {
		case "live":
			if ti.Version != 0 || ti.Base != "" {
				t.Fatalf("base lineage leaked: %+v", ti)
			}
		case res.Key:
			if ti.Version != 1 || ti.Base != "live" {
				t.Fatalf("derived lineage missing: %+v", ti)
			}
		default:
			t.Fatalf("unexpected listing entry %+v", ti)
		}
	}
}
