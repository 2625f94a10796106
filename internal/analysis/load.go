package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// A Package is one fully loaded, type-checked analysis target.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info

	refs *refSet // the enclosing module tree's references, shared by one Load
}

// pkgMeta is the subset of `go list -json` output the loader consumes.
type pkgMeta struct {
	Dir        string
	ImportPath string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	ImportMap  map[string]string
	Module     *struct{ Dir string }
}

// Load discovers the packages matching patterns with
// `go list -export -deps -json` executed in dir, then parses and
// type-checks each matched (non-dependency, non-stdlib) package from
// source. Dependencies — including the standard library — are resolved
// from the compiler export data the go command already produced, so the
// driver needs nothing beyond the toolchain and the standard library.
func Load(dir string, patterns []string) ([]*Package, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Export,Standard,Dir,GoFiles,DepOnly,ImportMap,Module",
		"--",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}

	exports := make(map[string]string)
	var targets []pkgMeta
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
		if !m.DepOnly && !m.Standard && len(m.GoFiles) > 0 {
			targets = append(targets, m)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	refs := &refSet{root: dir}
	if len(targets) > 0 && targets[0].Module != nil {
		refs.root = targets[0].Module.Dir
	}
	var pkgs []*Package
	for _, t := range targets {
		var files []string
		for _, g := range t.GoFiles {
			files = append(files, filepath.Join(t.Dir, g))
		}
		pkg, err := typeCheck(fset, t.ImportPath, t.Dir, files, exports, t.ImportMap)
		if err != nil {
			return nil, err
		}
		pkg.refs = refs
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// typeCheck parses the named files and type-checks them as importPath.
func typeCheck(fset *token.FileSet, importPath, dir string, filenames []string, exports map[string]string, importMap map[string]string) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return typeCheckParsed(fset, importPath, dir, files, exports, importMap)
}

func typeCheckParsed(fset *token.FileSet, importPath, dir string, files []*ast.File, exports map[string]string, importMap map[string]string) (*Package, error) {
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
	}
	var typeErrs []error
	conf.Error = func(err error) { typeErrs = append(typeErrs, err) }
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, errors.Join(typeErrs...))
	}
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}
