package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Reach flags exported API under internal/ that nothing outside the tests
// calls, so dead mechanisms cannot accumulate unnoticed.
var Reach = &Analyzer{
	Name: "reach",
	Doc: `flag exported functions and methods under internal/ that no non-test code references

A declaration is reached when a non-test file anywhere in the load uses it
(types.Info.Uses; a use of an instantiated generic counts for its origin),
or, for a method, when its receiver type or a pointer to it implements an
interface of that method's name: one declared in the load, in a standard
library package it imports, or the predeclared error. The use set spans the
whole load, so reach is silent unless the load holds repro/e2ebench, which
only the whole-repo load (apslint with no package arguments, covering the
root module and the e2ebench module) does; a partial run reports nothing.
Deliberate test seams carry //apslint:allow reach <reason>.`,
	Run: runReach,
}

func runReach(pass *Pass) error {
	if pass.uses == nil || !strings.HasPrefix(pass.PkgPath, "repro/internal/") {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok || pass.uses.reached(fn) {
				continue
			}
			pass.Reportf(fd.Name.Pos(),
				"%s is exported but no non-test code references it: delete it, or mark a deliberate test seam //apslint:allow reach <reason>",
				fn.FullName())
		}
	}
	return nil
}

// useSet is what reach consults: every function a non-test file of the load
// references, and every interface in sight indexed by method name.
type useSet struct {
	funcs  map[*types.Func]bool
	ifaces map[string][]*types.Interface
}

// newUseSet builds the use set of a load once, for every pass to share.
func newUseSet(pkgs []*Package) *useSet {
	u := &useSet{funcs: map[*types.Func]bool{}, ifaces: map[string][]*types.Interface{}}
	seenIface := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seenIface[it] {
			return
		}
		seenIface[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			u.ifaces[name] = append(u.ifaces[name], it)
		}
	}
	seenPkg := map[*types.Package]bool{}
	var addScope func(p *types.Package)
	addScope = func(p *types.Package) {
		if seenPkg[p] {
			return
		}
		seenPkg[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			addScope(imp)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, pkg := range pkgs {
		addScope(pkg.Types)
		for _, tv := range pkg.TypesInfo.Types {
			addIface(tv.Type) // interface literals, including local ones
		}
		for id, obj := range pkg.TypesInfo.Uses {
			if fn, ok := obj.(*types.Func); ok && !isTestFile(pkg.Fset, id.Pos()) {
				u.funcs[fn.Origin()] = true
			}
		}
	}
	return u
}

// reached reports whether fn is referenced, or is a method some interface
// in sight could dispatch to.
func (u *useSet) reached(fn *types.Func) bool {
	if u.funcs[fn] {
		return true
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for _, it := range u.ifaces[fn.Name()] {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// isTestFile reports whether pos lies in a _test.go file. The module loader
// never parses those, but fixture packages may carry one.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}
