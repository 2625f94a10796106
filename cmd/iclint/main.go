// Command iclint runs the repository's contract analyzers — the
// determinism, ordered-output, error-discipline, concurrency and
// dead-export checks in internal/analysis — over a set of Go packages
// and reports every violation. It is a hard CI gate: a non-empty
// report exits 1.
//
// Usage:
//
//	iclint [-C dir] [-analyzers a,b] [-list] [packages]
//
// Packages default to ./... resolved in -C dir (default "."), and
// -analyzers may name any subset of the registry. Findings are reported
// only in the matched packages, but deadexport counts callers across
// the whole module holding them and the modules nested in it (icbench),
// so a one-package run sees the same callers as ./... . The driver is
// standard-library only: package discovery runs through
// `go list -export`, loading through go/parser and go/types, so the
// module's zero-dependency go.mod stays zero-dependency.
//
// Findings are suppressed line by line with
//
//	//iclint:ignore <analyzer> <reason>
//
// on the flagged line or the line immediately above; the reason is
// mandatory and malformed directives are themselves findings.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"ictm/internal/analysis"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

func run(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("iclint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "directory to resolve package patterns in (like go -C)")
	names := fs.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	list := fs.Bool("list", false, "list the registered analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analysis.Analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := analysis.Analyzers
	if *names != "" {
		analyzers = nil
		for _, name := range strings.Split(*names, ",") {
			name = strings.TrimSpace(name)
			a := analysis.ByName(name)
			if a == nil {
				fmt.Fprintf(stderr, "iclint: unknown analyzer %q (known: %s)\n",
					name, strings.Join(analysis.AnalyzerNames(), ", "))
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := analysis.Load(*dir, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "iclint: %v\n", err)
		return 2
	}

	base, err := filepath.Abs(*dir)
	if err != nil {
		base = *dir
	}

	found := 0
	for _, pkg := range pkgs {
		for _, d := range analysis.RunPackage(pkg, analyzers) {
			found++
			pos := d.Pos
			if rel, err := filepath.Rel(base, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				pos.Filename = filepath.ToSlash(rel)
			}
			fmt.Fprintf(stdout, "%s: [%s] %s\n", pos, d.Analyzer, d.Message)
		}
	}
	if found > 0 {
		fmt.Fprintf(stderr, "iclint: %d finding(s)\n", found)
		return 1
	}
	return 0
}
