package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// wantRe matches a trailing `// want` expectation comment carrying one
// or more backquoted regular expressions (the hand-rolled analysistest
// convention the fixture corpus uses).
var (
	wantRe  = regexp.MustCompile("// want ((?:`[^`]*`\\s*)+)$")
	chunkRe = regexp.MustCompile("`([^`]*)`")
)

type expectation struct {
	file    string // base name
	line    int
	pattern *regexp.Regexp
	matched bool
}

// readExpectations scans every fixture file of dir for want comments.
func readExpectations(t *testing.T, dir string) []*expectation {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var exps []*expectation
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, chunk := range chunkRe.FindAllStringSubmatch(m[1], -1) {
				re, err := regexp.Compile(chunk[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", name, i+1, chunk[1], err)
				}
				exps = append(exps, &expectation{
					file:    filepath.Base(name),
					line:    i + 1,
					pattern: re,
				})
			}
		}
	}
	return exps
}

// TestCorpus runs each analyzer over its seeded-violation fixture
// package and checks the reported diagnostics one-to-one against the
// `// want` comments: every want must be matched by a diagnostic on
// its line, and every diagnostic must have a want. Suppressed seeded
// violations (the //iclint:ignore demos) carry no want, so a broken
// suppression path shows up as an unexpected diagnostic.
func TestCorpus(t *testing.T) {
	cases := []struct {
		dir        string
		importPath string
		analyzers  []*Analyzer
	}{
		{"lintmod/internal/synth", "lintmod/internal/synth", []*Analyzer{Detsource}},
		{"lintmod/maporder", "lintmod/maporder", []*Analyzer{Maporder}},
		{"lintmod/errsentinel", "lintmod/errsentinel", []*Analyzer{Errsentinel}},
		{"lintmod/atomicfield", "lintmod/atomicfield", []*Analyzer{Atomicfield}},
		{"lintmod/poolscope", "lintmod/poolscope", []*Analyzer{Poolscope}},
		{"lintmod/internal/deadexport", "lintmod/internal/deadexport", []*Analyzer{Deadexport}},
		// The fully-annotated package must be silent under the whole
		// suite (it has no want comments at all).
		{"lintmod/suppressed", "lintmod/suppressed", Analyzers},
	}
	for _, tc := range cases {
		t.Run(strings.ReplaceAll(tc.dir, "/", "_"), func(t *testing.T) {
			dir := filepath.Join("testdata", tc.dir)
			pkg, err := loadDir(dir, tc.importPath, ".")
			if err != nil {
				t.Fatal(err)
			}
			diags := RunPackage(pkg, tc.analyzers)
			exps := readExpectations(t, dir)
			// Guard against a vacuous pass: every seeded fixture
			// carries want comments; only the fully-suppressed
			// package is legitimately expectation-free.
			if len(exps) == 0 && tc.dir != "lintmod/suppressed" {
				t.Fatalf("no // want expectations parsed from %s", dir)
			}

			for _, d := range diags {
				found := false
				for _, e := range exps {
					if e.matched || e.file != filepath.Base(d.Pos.Filename) || e.line != d.Pos.Line {
						continue
					}
					if e.pattern.MatchString(d.Message) {
						e.matched = true
						found = true
						break
					}
				}
				if !found {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, e := range exps {
				if !e.matched {
					t.Errorf("%s:%d: expected a diagnostic matching %q, got none", e.file, e.line, e.pattern)
				}
			}
		})
	}
}

// TestDirectiveValidation pins the driver's handling of malformed
// //iclint:ignore comments: missing analyzer, unknown analyzer and
// missing reason each produce an iclint diagnostic at the directive.
func TestDirectiveValidation(t *testing.T) {
	pkg, err := loadDir(filepath.Join("testdata", "lintmod", "badignore"), "lintmod/badignore", ".")
	if err != nil {
		t.Fatal(err)
	}
	diags := RunPackage(pkg, Analyzers)
	want := []string{
		"missing analyzer name and reason",
		`unknown analyzer "nosuchanalyzer"`,
		"a reason is required",
	}
	if len(diags) != len(want) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(diags), len(want), format(diags))
	}
	for i, w := range want {
		if diags[i].Analyzer != driverName {
			t.Errorf("diagnostic %d: analyzer %q, want %q", i, diags[i].Analyzer, driverName)
		}
		if !strings.Contains(diags[i].Message, w) {
			t.Errorf("diagnostic %d: %q does not mention %q", i, diags[i].Message, w)
		}
	}
}

// TestSuppressionPlacement pins the two sanctioned directive
// placements — same line and line above — and that a directive naming
// a different analyzer does not suppress.
func TestSuppressionPlacement(t *testing.T) {
	d := Diagnostic{
		Pos:      token.Position{Filename: "f.go", Line: 10},
		Analyzer: "maporder",
	}
	cases := []struct {
		dir  ignoreDirective
		want bool
	}{
		{ignoreDirective{file: "f.go", line: 10, analyzer: "maporder"}, true},
		{ignoreDirective{file: "f.go", line: 9, analyzer: "maporder"}, true},
		{ignoreDirective{file: "f.go", line: 8, analyzer: "maporder"}, false},
		{ignoreDirective{file: "f.go", line: 11, analyzer: "maporder"}, false},
		{ignoreDirective{file: "f.go", line: 10, analyzer: "poolscope"}, false},
		{ignoreDirective{file: "g.go", line: 10, analyzer: "maporder"}, false},
	}
	for i, tc := range cases {
		if got := suppressed(d, []ignoreDirective{tc.dir}); got != tc.want {
			t.Errorf("case %d (%+v): suppressed = %v, want %v", i, tc.dir, got, tc.want)
		}
	}
}

// TestLoadRealPackage smoke-tests the go list driver against a real
// module package: the loader must produce a type-checked package whose
// AST and type info line up.
func TestLoadRealPackage(t *testing.T) {
	pkgs, err := Load("../..", []string{"./internal/rng"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if pkg.ImportPath != "ictm/internal/rng" {
		t.Errorf("ImportPath = %q", pkg.ImportPath)
	}
	if pkg.Types.Scope().Lookup("DeriveIndex") == nil && pkg.Types.Scope().Lookup("PCG") == nil {
		t.Error("type-checked scope is missing expected declarations")
	}
	if len(pkg.Files) == 0 || len(pkg.Info.Uses) == 0 {
		t.Error("loaded package has no files or no use info")
	}
}

func format(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintln(&b, d)
	}
	return b.String()
}

// loadDir loads the non-test Go files of one directory (a fixture
// package that go list need not know) as a single package with the
// given import path. Imports are resolved by asking the go command for their
// export data, so fixtures may import anything the standard library
// offers. listDir is where `go list` runs (any directory inside a
// module with a toolchain works); the import path is taken at face
// value, which lets a fixture pose as e.g. "lintmod/internal/synth" so
// path-scoped analyzers fire on it. deadexport collects references
// over the nearest enclosing module.
func loadDir(dir, importPath, listDir string) (*Package, error) {
	all, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var names []string
	for _, name := range all {
		if !strings.HasSuffix(name, "_test.go") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	imports := make(map[string]bool)
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil {
				imports[p] = true
			}
		}
	}

	exports := make(map[string]string)
	if len(imports) > 0 {
		var paths []string
		for p := range imports {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		args := append([]string{
			"list", "-export", "-deps",
			"-json=ImportPath,Export",
			"--",
		}, paths...)
		cmd := exec.Command("go", args...)
		cmd.Dir = listDir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list %v: %v\n%s", paths, err, stderr.String())
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var m pkgMeta
			if err := dec.Decode(&m); err == io.EOF {
				break
			} else if err != nil {
				return nil, fmt.Errorf("go list: decoding output: %v", err)
			}
			if m.Export != "" {
				exports[m.ImportPath] = m.Export
			}
		}
	}

	pkg, err := typeCheckParsed(fset, importPath, dir, files, exports, nil)
	if err != nil {
		return nil, err
	}
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("no go.mod above %s", dir)
		}
		root = parent
	}
	pkg.refs = &refSet{root: root}
	return pkg, nil
}
