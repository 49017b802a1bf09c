package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one type-checked module package ready for analysis. Test files
// are never loaded: the repo's analyzer policy exempts _test.go files, so
// the loader simply does not parse them.
type Package struct {
	// Path is the import path ("repro/internal/eval").
	Path string
	// Name is the package name ("eval").
	Name string
	// Dir is the on-disk directory the files were read from.
	Dir string
	// Fset is the file set shared by every package of one load.
	Fset *token.FileSet
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// TypesInfo carries the resolution maps analyzers consult.
	TypesInfo *types.Info
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Imports    []string
	Standard   bool
}

// LoadPackages resolves patterns (e.g. "./internal/eval") with the go tool
// from dir, parses every matched module package, and type-checks them in
// dependency order. With no patterns it loads the whole repository rooted at
// dir: the e2ebench module, which replaces repro with ../, lists itself and
// every root-module package when asked for "./..." and "repro/...".
// Standard-library imports are type-checked from source on demand by a
// shared importer, so the loader works offline with a bare GOPATH and no
// third-party dependencies. Any parse or type error aborts the load: the
// analyzers only run on trees the compiler would accept.
func LoadPackages(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		dir, patterns = filepath.Join(dir, "e2ebench"), []string{"./...", "repro/..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	byPath := make(map[string]*listedPkg, len(listed))
	for _, lp := range listed {
		byPath[lp.ImportPath] = lp
	}

	// Dependency-order the module packages so every repro/... import is
	// already type-checked when its importer needs it. Imports outside the
	// listed set (the standard library) are the source importer's problem.
	order := make([]*listedPkg, 0, len(listed))
	state := make(map[string]int, len(listed)) // 0 unvisited, 1 visiting, 2 done
	var visit func(lp *listedPkg) error
	visit = func(lp *listedPkg) error {
		switch state[lp.ImportPath] {
		case 1:
			return fmt.Errorf("lint: import cycle through %s", lp.ImportPath)
		case 2:
			return nil
		}
		state[lp.ImportPath] = 1
		for _, imp := range lp.Imports {
			if dep, ok := byPath[imp]; ok {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[lp.ImportPath] = 2
		order = append(order, lp)
		return nil
	}
	// Deterministic load order regardless of go list's pattern expansion.
	sort.Slice(listed, func(i, j int) bool { return listed[i].ImportPath < listed[j].ImportPath })
	for _, lp := range listed {
		if err := visit(lp); err != nil {
			return nil, err
		}
	}

	fset := token.NewFileSet()
	imp := &chainImporter{
		repo: make(map[string]*types.Package),
		std:  importer.ForCompiler(fset, "source", nil),
	}
	var pkgs []*Package
	for _, lp := range order {
		if len(lp.GoFiles) == 0 {
			continue // test-only packages (the root bench package) have nothing to analyze
		}
		pkg, err := checkPackage(fset, imp, lp.ImportPath, lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, err
		}
		imp.repo[lp.ImportPath] = pkg.Types
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func goList(dir string, patterns []string) ([]*listedPkg, error) {
	args := append([]string{"list", "-json=ImportPath,Name,Dir,GoFiles,Imports,Standard"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %s: %w\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var out []*listedPkg
	dec := json.NewDecoder(&stdout)
	for {
		lp := &listedPkg{}
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		if lp.Standard {
			continue
		}
		out = append(out, lp)
	}
	return out, nil
}

// checkPackage parses and type-checks one package's files.
func checkPackage(fset *token.FileSet, imp types.Importer, path, dir string, goFiles []string) (*Package, error) {
	files := make([]*ast.File, 0, len(goFiles))
	name := ""
	for _, gf := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, gf), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
		name = f.Name.Name
	}
	info := newTypesInfo()
	var typeErrs []string
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error: func(err error) {
			typeErrs = append(typeErrs, err.Error())
		},
	}
	tpkg, err := conf.Check(path, fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s:\n  %s", path, strings.Join(typeErrs, "\n  "))
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{
		Path:      path,
		Name:      name,
		Dir:       dir,
		Fset:      fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}

func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// chainImporter satisfies repro/... imports from the packages this load has
// already checked and everything else (the standard library) from source.
type chainImporter struct {
	repo map[string]*types.Package
	std  types.Importer
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if p, ok := c.repo[path]; ok {
		return p, nil
	}
	return c.std.Import(path)
}
