package analysis

import (
	"go/ast"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Deadexport keeps internal/ free of exported code that nothing ships:
// an exported package-level func, type, var or const, or an exported
// method, declared in an internal/ package is a finding when no
// non-test Go file references it outside its own declaration.
//
// References are collected over the whole module that holds the linted
// package plus every module nested inside it (the icbench harness
// imports internal/ directly), whatever package pattern is linted, so
// linting one package sees the same callers as linting ./... . A method
// whose type implements an interface that has the method counts as
// reached when that interface's methods are called in non-test code or
// when the standard library calls it implicitly (error, fmt.Stringer,
// json.Marshaler, the errors.Is/As/Unwrap hooks, sort and heap, io,
// http.Handler, flag.Value).
var Deadexport = &Analyzer{
	Name: "deadexport",
	Doc:  "flag exported internal/ declarations that no non-test code of the module or its nested modules references",
	Run:  runDeadexport,
}

// implicitIfaces are the method sets the standard library calls on a
// value without this module's code naming the method, in sigKey form.
var implicitIfaces = [][]string{
	{"Error()(string)"},
	{"String()(string)"},
	{"GoString()(string)"},
	{"Format(fmt.State,rune)()"},
	{"MarshalJSON()([]byte,error)"},
	{"UnmarshalJSON([]byte)(error)"},
	{"MarshalText()([]byte,error)"},
	{"UnmarshalText([]byte)(error)"},
	{"Is(error)(bool)"},
	{"As(any)(bool)"},
	{"Unwrap()(error)"},
	{"Unwrap()([]error)"},
	{"Len()(int)", "Less(int,int)(bool)", "Swap(int,int)()"},
	{"Len()(int)", "Less(int,int)(bool)", "Pop()(any)", "Push(any)()", "Swap(int,int)()"},
	{"Read([]byte)(int,error)"},
	{"Write([]byte)(int,error)"},
	{"Close()(error)"},
	{"ServeHTTP(net/http.ResponseWriter,*net/http.Request)()"},
	{"Set(string)(error)", "String()(string)"},
}

// refIndex is what deadexport checks a package against: the keys (see
// objKey) of every declaration some non-test code references, and the
// method sets of the interfaces whose methods non-test code calls.
type refIndex struct {
	used   map[string]bool
	ifaces map[string][]string
}

// refSet builds the refIndex of one module tree on first use and
// shares it between every package that one Load returned.
type refSet struct {
	root string
	once sync.Once
	idx  *refIndex
	err  error
}

func (r *refSet) get() (*refIndex, error) {
	r.once.Do(func() { r.idx, r.err = buildRefIndex(r.root) })
	return r.idx, r.err
}

// buildRefIndex loads ./... of the module at root and of every module
// nested under it, skipping the directories the go command skips, and
// records their references.
func buildRefIndex(root string) (*refIndex, error) {
	dirs := []string{root}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == root {
			return err
		}
		if name := d.Name(); name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	idx := &refIndex{used: make(map[string]bool), ifaces: make(map[string][]string)}
	for _, dir := range dirs {
		pkgs, err := Load(dir, []string{"./..."})
		if err != nil {
			return nil, err
		}
		for _, pkg := range pkgs {
			idx.add(pkg)
		}
	}
	return idx, nil
}

// add records every reference pkg makes outside the declaration of the
// object referenced.
func (idx *refIndex) add(pkg *Package) {
	record := func(node ast.Node, own map[string]bool) {
		ast.Inspect(node, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pkg.Info.Uses[id]
			if obj == nil {
				return true
			}
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
						keys := ifaceKeys(iface)
						idx.ifaces[strings.Join(keys, "\n")] = keys
					}
				}
			}
			if k := objKey(obj); k != "" && !own[k] {
				idx.used[k] = true
			}
			return true
		})
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				own := map[string]bool{objKey(pkg.Info.Defs[decl.Name]): true}
				if named := recvNamed(pkg.Info.Defs[decl.Name]); named != nil {
					own[objKey(named.Obj())] = true // a type's methods are part of its declaration
				}
				record(decl, own)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					own := make(map[string]bool)
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						own[objKey(pkg.Info.Defs[spec.Name])] = true
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							own[objKey(pkg.Info.Defs[name])] = true
						}
					}
					record(spec, own)
				}
			}
		}
	}
}

// objKey names a package-level object or a method of a named type the
// same way in every package's type-checking universe: "path.Name" or
// "path.Type.Method". Anything else (locals, fields, interface methods,
// universe objects) has no key.
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		named := recvNamed(fn)
		if named == nil || types.IsInterface(named) {
			return ""
		}
		return obj.Pkg().Path() + "." + named.Obj().Name() + "." + obj.Name()
	}
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		return ""
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// recvNamed returns the (generic origin of the) named receiver type of
// a method, or nil.
func recvNamed(obj types.Object) *types.Named {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin()
	}
	return nil
}

// sigKey renders a method as name(params)(results) with package-path
// qualified types and no parameter names, so a method compares equal
// across type-checking universes.
func sigKey(fn *types.Func) string {
	qual := func(p *types.Package) string { return p.Path() }
	tuple := func(t *types.Tuple) string {
		parts := make([]string, t.Len())
		for i := range parts {
			parts[i] = types.TypeString(t.At(i).Type(), qual)
		}
		return "(" + strings.Join(parts, ",") + ")"
	}
	sig := fn.Type().(*types.Signature)
	return fn.Name() + tuple(sig.Params()) + tuple(sig.Results())
}

// ifaceKeys is an interface's method set in sorted sigKey form.
func ifaceKeys(iface *types.Interface) []string {
	keys := make([]string, iface.NumMethods())
	for i := range keys {
		keys[i] = sigKey(iface.Method(i))
	}
	sort.Strings(keys)
	return keys
}

// viaInterface reports whether method fn is reachable through one of
// the called or implicit interfaces: one that has fn and whose every
// method fn's receiver type (through a pointer) implements.
func (idx *refIndex) viaInterface(fn *types.Func, named *types.Named) bool {
	mset := types.NewMethodSet(types.NewPointer(named))
	have := make(map[string]bool, mset.Len())
	for i := 0; i < mset.Len(); i++ {
		have[sigKey(mset.At(i).Obj().(*types.Func))] = true
	}
	key := sigKey(fn)
	covers := func(keys []string) bool {
		hit := false
		for _, k := range keys {
			if !have[k] {
				return false
			}
			hit = hit || k == key
		}
		return hit
	}
	for _, keys := range implicitIfaces {
		if covers(keys) {
			return true
		}
	}
	for _, keys := range idx.ifaces {
		if covers(keys) {
			return true
		}
	}
	return false
}

func runDeadexport(pass *Pass) {
	if !strings.HasPrefix(pass.Pkg.Path()+"/", "internal/") && !strings.Contains(pass.Pkg.Path()+"/", "/internal/") {
		return
	}
	idx, err := pass.refs.get()
	if err != nil {
		pass.Reportf(pass.Files[0].Package, "cannot collect the module's references: %v", err)
		return
	}
	report := func(id *ast.Ident, kind, name string) {
		obj := pass.Info.Defs[id]
		if !id.IsExported() || obj == nil || idx.used[objKey(obj)] {
			return
		}
		pass.Reportf(id.Pos(), "exported %s %s has no non-test reference; delete it, move it into a _test.go helper, or keep it with a reason", kind, name)
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					report(decl.Name, "func", decl.Name.Name)
					continue
				}
				fn, _ := pass.Info.Defs[decl.Name].(*types.Func)
				if named := recvNamed(fn); named != nil && !idx.used[objKey(fn)] && !idx.viaInterface(fn, named) {
					report(decl.Name, "method", named.Obj().Name()+"."+decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						report(spec.Name, "type", spec.Name.Name)
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							report(name, decl.Tok.String(), name.Name)
						}
					}
				}
			}
		}
	}
}
