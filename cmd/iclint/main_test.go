package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites the golden diagnostics file instead of comparing:
//
//	go test ./cmd/iclint -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files")

// corpus is the seeded-violation fixture module shared with
// internal/analysis's want-comment tests: one package per analyzer,
// one fully-suppressed package, one package of malformed directives.
const corpus = "../../internal/analysis/testdata/lintmod"

// TestGoldenCorpus runs the real CLI flow (go list discovery, source
// type-checking, all analyzers, suppression, output formatting) over
// the fixture corpus and pins the exact diagnostics byte for byte:
// every analyzer must report each of its seeded violations, in
// deterministic order, and nothing else. This is the proof behind the
// acceptance criterion that a seeded-violation fixture trips all six
// analyzers.
func TestGoldenCorpus(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run(&out, &errBuf, []string{"-C", corpus, "./..."})
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, errBuf.String())
	}
	golden := filepath.Join("testdata", "golden_diags.txt")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("diagnostics differ from %s (regenerate deliberately with -update):\ngot:\n%swant:\n%s",
			golden, out.String(), string(want))
	}
	// Each analyzer (and the driver's directive validation) must
	// contribute at least one line, or the golden has gone vacuous.
	for _, name := range []string{"detsource", "maporder", "errsentinel", "atomicfield", "poolscope", "deadexport", "iclint"} {
		if !strings.Contains(out.String(), "["+name+"] ") {
			t.Errorf("golden run has no findings from %q", name)
		}
	}
}

// TestSuppression pins the //iclint:ignore contract end to end: the
// fully-annotated fixture package carries one violation per applicable
// analyzer, each with a directive and reason, and the suite must exit
// 0 with no output over it.
func TestSuppression(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run(&out, &errBuf, []string{"-C", corpus, "./suppressed"})
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; output:\n%s%s", code, out.String(), errBuf.String())
	}
	if out.Len() != 0 {
		t.Errorf("suppressed package produced output:\n%s", out.String())
	}
}

// TestAnalyzerSubset checks -analyzers restricts the run: only
// maporder findings appear, and an unknown name is a usage error.
// It targets the maporder fixture package alone because the driver's
// own directive validation (the badignore package) is not analyzer-
// scoped and would rightly still report under ./... .
func TestAnalyzerSubset(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run(&out, &errBuf, []string{"-C", corpus, "-analyzers", "maporder", "./maporder"})
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if !strings.Contains(line, "[maporder] ") {
			t.Errorf("subset run leaked a non-maporder line: %s", line)
		}
	}

	out.Reset()
	errBuf.Reset()
	if code := run(&out, &errBuf, []string{"-analyzers", "nope", "./..."}); code != 2 {
		t.Errorf("unknown analyzer: exit code = %d, want 2", code)
	}
	if !strings.Contains(errBuf.String(), "unknown analyzer") {
		t.Errorf("unknown analyzer: stderr %q", errBuf.String())
	}
}

// TestList pins the registry listing.
func TestList(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run(&out, &errBuf, []string{"-list"}); code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	for _, name := range []string{"detsource", "maporder", "errsentinel", "atomicfield", "poolscope", "deadexport"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, out.String())
		}
	}
}

// TestCleanTree is the acceptance criterion in test form: the suite
// must exit 0 over the repository's own packages. Every real finding
// has been fixed or carries an //iclint:ignore with its reason, so a
// new violation anywhere in the module fails this test locally before
// CI even runs.
func TestCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	var out, errBuf bytes.Buffer
	code := run(&out, &errBuf, []string{"-C", "../..", "./..."})
	if code != 0 {
		t.Fatalf("iclint over the repository exited %d:\n%s%s", code, out.String(), errBuf.String())
	}
}

// TestDeadexportSeesWholeModule pins deadexport's reference set: it is
// built over the whole module (and the modules nested in it) whatever
// pattern is linted, so linting one package alone must not report the
// exports its callers in other packages use. Collecting references only
// over the linted pattern would flag most of linalg here.
func TestDeadexportSeesWholeModule(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	var out, errBuf bytes.Buffer
	code := run(&out, &errBuf, []string{"-C", "../..", "-analyzers", "deadexport", "./internal/linalg"})
	if code != 0 {
		t.Fatalf("iclint -analyzers deadexport ./internal/linalg exited %d:\n%s%s", code, out.String(), errBuf.String())
	}
}
