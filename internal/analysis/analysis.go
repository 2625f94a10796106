// Package analysis is a zero-dependency static-analysis driver that
// enforces this repository's load-bearing source contracts — the ones
// the test suite can only probe path by path:
//
//   - determinism: everything randomized flows through internal/rng
//     streams, never ambient sources (detsource);
//   - ordered output: map iteration must not leak Go's randomized map
//     order into slices, streams or accumulated floats (maporder);
//   - error discipline: exported Err* sentinels are matched with
//     errors.Is/errors.As, never == or err.Error() strings
//     (errsentinel);
//   - concurrency: a field touched via sync/atomic anywhere is touched
//     that way everywhere (atomicfield), and sync.Pool scratch never
//     outlives the call that checked it out (poolscope);
//   - no dead API: every export of an internal/ package has a non-test
//     caller somewhere in the module or its nested modules
//     (deadexport).
//
// The driver deliberately depends only on the standard library
// (go/parser + go/types over `go list -export` metadata), so the
// repository's go.mod stays empty: the linter that gates CI cannot
// itself drag in a dependency tree.
//
// Findings are suppressed line by line with
//
//	//iclint:ignore <analyzer> <reason>
//
// placed on the flagged line or the line immediately above it. The
// reason is mandatory: an unexplained suppression is itself a
// diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named contract check. Run inspects the package in
// pass and reports findings through pass.Reportf.
type Analyzer struct {
	Name string // short lowercase identifier, used in directives and output
	Doc  string // one-line contract statement
	Run  func(*Pass)
}

// Analyzers is the full registry, in the order the suite runs them.
// Directive validation accepts exactly these names.
var Analyzers = []*Analyzer{
	Detsource,
	Maporder,
	Errsentinel,
	Atomicfield,
	Poolscope,
	Deadexport,
}

// AnalyzerNames returns the registry names in run order.
func AnalyzerNames() []string {
	names := make([]string, len(Analyzers))
	for i, a := range Analyzers {
		names[i] = a.Name
	}
	return names
}

// ByName resolves a registry analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	refs  *refSet
	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one reported contract violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// ignoreDirective is one parsed //iclint:ignore comment.
type ignoreDirective struct {
	file     string
	line     int
	analyzer string
}

const directivePrefix = "iclint:ignore"

// driverName labels diagnostics produced by the driver itself
// (malformed suppression directives); it is not suppressible.
const driverName = "iclint"

// RunPackage runs the given analyzers over one loaded package and
// returns the surviving diagnostics, sorted by position: findings with
// a matching, well-formed //iclint:ignore directive on their own line
// or the line above are dropped, and malformed directives (unknown
// analyzer, missing reason) are themselves reported.
func RunPackage(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			refs:     pkg.refs,
			diags:    &diags,
		}
		a.Run(pass)
	}

	directives, bad := collectDirectives(pkg)
	diags = append(diags, bad...)

	kept := diags[:0]
	for _, d := range diags {
		if d.Analyzer != driverName && suppressed(d, directives) {
			continue
		}
		kept = append(kept, d)
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return kept
}

// collectDirectives scans every comment of the package for
// //iclint:ignore directives, returning the well-formed ones plus
// driver diagnostics for the malformed ones.
func collectDirectives(pkg *Package) ([]ignoreDirective, []Diagnostic) {
	var dirs []ignoreDirective
	var bad []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		bad = append(bad, Diagnostic{
			Pos:      pkg.Fset.Position(pos),
			Analyzer: driverName,
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(text, directivePrefix)
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					report(c.Pos(), "malformed //iclint:ignore: missing analyzer name and reason")
					continue
				}
				name := fields[0]
				if ByName(name) == nil {
					report(c.Pos(), "malformed //iclint:ignore: unknown analyzer %q (known: %s)",
						name, strings.Join(AnalyzerNames(), ", "))
					continue
				}
				if len(fields) < 2 {
					report(c.Pos(), "malformed //iclint:ignore %s: a reason is required", name)
					continue
				}
				p := pkg.Fset.Position(c.Pos())
				dirs = append(dirs, ignoreDirective{file: p.Filename, line: p.Line, analyzer: name})
			}
		}
	}
	return dirs, bad
}

// suppressed reports whether a matching directive covers d: same file
// and analyzer, on d's line or the line immediately above it.
func suppressed(d Diagnostic, dirs []ignoreDirective) bool {
	for _, dir := range dirs {
		if dir.analyzer != d.Analyzer || dir.file != d.Pos.Filename {
			continue
		}
		if dir.line == d.Pos.Line || dir.line == d.Pos.Line-1 {
			return true
		}
	}
	return false
}

// walkStack traverses root in source order, calling fn with each node
// and the stack of its ancestors (outermost first, root excluded from
// its own stack). Returning false skips the node's children.
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// errorIface is the universe error interface, for Implements checks.
var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t satisfies the error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorIface)
}

// funcFor returns the innermost enclosing function declaration or
// literal from a walk stack, or nil.
func funcFor(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}
