package lint

import (
	"fmt"
	"go/importer"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
)

// This file is the fixture-test harness: a stdlib reimplementation of the
// golang.org/x/tools analysistest pattern. Fixture packages live under
// testdata/<analyzer>/<name>; each flagged line carries a
//
//	// want "regexp" ["regexp" …]
//
// comment, and CheckFixture asserts the analyzer reports exactly the
// expected set — unexpected findings and unmatched expectations both fail.

// TB is the subset of *testing.T the harness needs; taking an interface
// keeps the testing package out of the non-test build.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
}

// LoadFixture parses and type-checks a fixture directory as one package
// with the given (spoofed) import path, so fixtures can exercise the
// package-policy rules without living at real module paths. Fixtures may
// import the standard library only.
func LoadFixture(dir, pkgPath string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: fixture %s: %w", dir, err)
	}
	var goFiles []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			goFiles = append(goFiles, e.Name())
		}
	}
	sort.Strings(goFiles)
	if len(goFiles) == 0 {
		return nil, fmt.Errorf("lint: fixture %s: no Go files", dir)
	}
	fset := token.NewFileSet()
	imp := &chainImporter{std: importer.ForCompiler(fset, "source", nil)}
	pkg, err := checkPackage(fset, imp, pkgPath, dir, goFiles)
	if err != nil {
		return nil, err
	}
	return pkg, nil
}

// wantRe extracts the quoted regexps of a want comment; both "…" and the
// escape-free `…` form are accepted.
var wantRe = regexp.MustCompile("`([^`]*)`" + `|"((?:[^"\\]|\\.)*)"`)

// expectation is one unmatched want pattern.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
}

// parseWants collects the `// want "…"` expectations of a fixture package.
func parseWants(pkg *Package) ([]*expectation, error) {
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Slash)
				matches := wantRe.FindAllStringSubmatch(text[len("want "):], -1)
				if len(matches) == 0 {
					return nil, fmt.Errorf("%s: malformed want comment %q", pos, c.Text)
				}
				for _, m := range matches {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						return nil, fmt.Errorf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					wants = append(wants, &expectation{
						file: pos.Filename,
						line: pos.Line,
						re:   re,
						raw:  pat,
					})
				}
			}
		}
	}
	return wants, nil
}

// CheckFixture runs the analyzers over the fixture package (through the
// same directive-suppression driver the CLI uses) and asserts the
// diagnostics match the fixture's want comments exactly.
func CheckFixture(t TB, pkg *Package, analyzers ...*Analyzer) {
	t.Helper()
	wants, err := parseWants(pkg)
	if err != nil {
		t.Fatalf("parsing want comments: %v", err)
	}
	diags, err := RunPackage(pkg, analyzers)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.re == nil || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.re = nil // consumed
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic:\n  %s", d)
		}
	}
	for _, w := range wants {
		if w.re != nil {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
		}
	}
}

// Fixture loads testdata/<elem...> relative to this source file and runs
// CheckFixture with the given package path.
//
//apslint:allow reach test seam: every analyzer's fixture test calls it
func Fixture(t TB, pkgPath string, analyzers []*Analyzer, elem ...string) {
	t.Helper()
	pkg, err := LoadFixture(testdataDir(elem...), pkgPath)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	CheckFixture(t, pkg, analyzers...)
}

// testdataDir resolves testdata paths relative to this package's source
// directory, so tests work regardless of the working directory.
func testdataDir(elem ...string) string {
	_, self, _, _ := runtime.Caller(0)
	return filepath.Join(append([]string{filepath.Dir(self), "testdata"}, elem...)...)
}
