package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites the golden files instead of comparing against them:
//
//	go test ./cmd/icest -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files")

func TestRunBadFlags(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-bogus"}, &out, &errBuf); err == nil {
		t.Error("unknown flag must fail")
	}
	if err := run([]string{"-scenario", "nope"}, &out, &errBuf); err == nil {
		t.Error("unknown scenario must fail")
	}
	if err := run([]string{"-weeks", "1"}, &out, &errBuf); err == nil {
		t.Error("fewer than 2 weeks must fail")
	}
	if err := run([]string{"-flaps", "-1"}, &out, &errBuf); err == nil {
		t.Error("negative -flaps must fail")
	}
}

// TestRunTinyEndToEnd drives the full comparison at the smallest usable
// scale and checks the report covers every prior plus IPF diagnostics.
func TestRunTinyEndToEnd(t *testing.T) {
	var out, errBuf bytes.Buffer
	args := []string{"-scale", "0.01", "-weeks", "2"}
	if err := run(args, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for _, want := range []string{"gravity", "fanout", "ic-optimal", "ic-stable-fP", "ic-stable-f", "IPF non-conv", "calibrated f"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}

// TestRunGoldenGeant pins the exact report of a fixed GeantLike run.
// The pipeline is bit-deterministic for any worker count, so the bytes
// printed here are a regression snapshot of the whole estimation stack:
// a future solver refactor that silently shifts estimates fails this
// test instead of drifting unnoticed. Regenerate deliberately with
// -update after a change that is supposed to move the numbers.
func TestRunGoldenGeant(t *testing.T) {
	var out, errBuf bytes.Buffer
	args := []string{"-scenario", "geant", "-scale", "0.02", "-weeks", "2"}
	if err := run(args, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden_geant_scale002.txt")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("report drifted from golden snapshot (run with -update if intended):\n--- got\n%s--- want\n%s", got, want)
	}
}

// TestRunGoldenISPFlap pins the flap-dynamics report: the isp run with
// a two-event failure schedule over the target week, estimated through
// the incremental patch + rebase path. Like the Geant golden this is a
// byte-exact regression snapshot — of the whole delta pipeline
// (topology.Apply, routing.Patch, Estimator.Rebase) this time, since
// the flapped numbers flow through it. Regenerate with -update.
func TestRunGoldenISPFlap(t *testing.T) {
	var out, errBuf bytes.Buffer
	args := []string{"-scenario", "isp", "-n", "12", "-scale", "0.01", "-weeks", "2", "-flaps", "2"}
	if err := run(args, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "flap dynamics: 2 events") {
		t.Fatalf("report missing flap section:\n%s", out.String())
	}
	golden := filepath.Join("testdata", "golden_isp_flap.txt")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("flap report drifted from golden snapshot (run with -update if intended):\n--- got\n%s--- want\n%s", got, want)
	}
}

// TestRunISPScenario drives the parameterized large-topology family
// end to end at a small n (the hundred-node scales live in the
// benchmarks; this covers the CLI wiring: -scenario isp -n, the
// backbone-stub topology, and the sparse-first solver under it).
func TestRunISPScenario(t *testing.T) {
	var out, errBuf bytes.Buffer
	args := []string{"-scenario", "isp", "-n", "20", "-scale", "0.01", "-weeks", "2"}
	if err := run(args, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "gravity") {
		t.Errorf("isp report missing priors:\n%s", out.String())
	}
	if !strings.Contains(errBuf.String(), "isp-20") {
		t.Errorf("progress log should name the isp-20 scenario:\n%s", errBuf.String())
	}
}

// TestRunWorkersIdenticalReports: the -workers flag must not change the
// printed numbers. (The bitwise contract is also asserted at library
// level in internal/estimation; this covers the CLI wiring.)
func TestRunWorkersIdenticalReports(t *testing.T) {
	if testing.Short() {
		t.Skip("two full comparison runs")
	}
	var seq, par, errBuf bytes.Buffer
	if err := run([]string{"-scale", "0.01", "-workers", "1", "-linknoise", "0.05"}, &seq, &errBuf); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scale", "0.01", "-workers", "8", "-linknoise", "0.05"}, &par, &errBuf); err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Errorf("reports differ between -workers 1 and 8:\n--- seq\n%s\n--- par\n%s", seq.String(), par.String())
	}
}

// TestRunWarnsIgnoredFlags is the icest row of the cross-tool
// flag-consistency contract: -n sizes only the isp family and must warn
// under the fixed-size presets.
func TestRunWarnsIgnoredFlags(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		wantWarn string
	}{
		{"n with geant", []string{"-scenario", "geant", "-n", "50", "-scale", "0.01", "-weeks", "2"},
			"icest: warning: -n is ignored with -scenario geant"},
		{"n with isp", []string{"-scenario", "isp", "-n", "12", "-scale", "0.01", "-weeks", "2"}, ""},
		{"flaps with geant", []string{"-scenario", "geant", "-flaps", "1", "-scale", "0.01", "-weeks", "2"},
			"icest: warning: -flaps is ignored with -scenario geant"},
		{"flaps with totem", []string{"-scenario", "totem", "-flaps", "1", "-scale", "0.01", "-weeks", "2"},
			"icest: warning: -flaps is ignored with -scenario totem"},
		{"flaps with isp", []string{"-scenario", "isp", "-n", "12", "-flaps", "1", "-scale", "0.01", "-weeks", "2"}, ""},
	}
	for _, tc := range cases {
		var out, errBuf bytes.Buffer
		if err := run(tc.args, &out, &errBuf); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.wantWarn == "" {
			if strings.Contains(errBuf.String(), "warning") {
				t.Errorf("%s: unexpected warning:\n%s", tc.name, errBuf.String())
			}
		} else if !strings.Contains(errBuf.String(), tc.wantWarn) {
			t.Errorf("%s: stderr missing %q:\n%s", tc.name, tc.wantWarn, errBuf.String())
		}
	}
}

// TestRunFaultProfile drives the comparison through the lossy
// measurement-fault profile: the run must complete (degrade, not die),
// print the degradation report with non-zero degraded bins, and keep
// the report itself deterministic. The clean profile must add nothing,
// preserving the golden snapshots.
func TestRunFaultProfile(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-fault-profile", "bogus"}, &out, &errBuf); err == nil {
		t.Error("unknown fault profile must fail")
	}

	runProfile := func(profile string) string {
		t.Helper()
		var out, errBuf bytes.Buffer
		args := []string{"-scale", "0.01", "-weeks", "2", "-fault-profile", profile}
		if err := run(args, &out, &errBuf); err != nil {
			t.Fatalf("profile %q: %v\n%s", profile, err, errBuf.String())
		}
		return out.String()
	}

	lossy := runProfile("lossy")
	if !strings.Contains(lossy, "fault profile lossy: degradation report") {
		t.Errorf("lossy report missing degradation section:\n%s", lossy)
	}
	if strings.Contains(lossy, "0/") && !strings.Contains(lossy, "degraded bins") {
		t.Errorf("degradation header missing:\n%s", lossy)
	}
	// Every prior row must report degraded bins under 20% missing links.
	if strings.Contains(lossy, "gravity        0/") {
		t.Errorf("lossy profile degraded no bins:\n%s", lossy)
	}
	if again := runProfile("lossy"); again != lossy {
		t.Error("lossy report is not deterministic")
	}

	if clean := runProfile("clean"); strings.Contains(clean, "degradation report") {
		t.Errorf("clean profile must not print a degradation report:\n%s", clean)
	}
}
