package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestDirectiveGrammar pins the //apslint: directive parser: wrong verbs,
// unknown analyzers, and missing reasons are non-suppressible findings,
// while a well-formed allow suppresses its line.
func TestDirectiveGrammar(t *testing.T) {
	pkg, err := LoadFixture(testdataDir("directives", "dirbad"), "repro/internal/sim")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, err := RunPackage(pkg, All)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	wantSubstrings := []string{
		"unknown apslint directive",
		"needs a known analyzer",
		"needs a reason",
	}
	if len(diags) != len(wantSubstrings) {
		t.Fatalf("got %d diagnostics, want %d (the time.Now must be suppressed):\n%v",
			len(diags), len(wantSubstrings), diags)
	}
	for i, d := range diags {
		if d.Analyzer != "apslint" {
			t.Errorf("diagnostic %d: analyzer = %q, want the non-suppressible %q pseudo-analyzer", i, d.Analyzer, "apslint")
		}
		if !strings.Contains(d.Message, wantSubstrings[i]) {
			t.Errorf("diagnostic %d = %q, want substring %q", i, d.Message, wantSubstrings[i])
		}
	}
}

func TestDeterminismCriticalPolicy(t *testing.T) {
	critical := []string{
		"repro/internal/sim", "repro/internal/dataset", "repro/internal/nn",
		"repro/internal/monitor", "repro/internal/eval", "repro/internal/sweep",
		"repro/internal/mat", "repro/internal/mat32", "repro/internal/attack",
		"repro/internal/experiments", "repro/internal/metrics", "repro/internal/stl",
		"repro/internal/artifact", "repro/internal/ode", "repro/internal/patient",
		"repro/internal/controller",
	}
	for _, p := range critical {
		if !DeterminismCritical(p) {
			t.Errorf("DeterminismCritical(%q) = false, want true", p)
		}
	}
	exempt := []string{
		"repro/internal/serve", "repro/cmd/apsim", "repro/cmd/apserve",
		"repro/examples/quickstart", "repro", "repro/internal/lint",
	}
	for _, p := range exempt {
		if DeterminismCritical(p) {
			t.Errorf("DeterminismCritical(%q) = true, want false", p)
		}
	}
}

func TestByName(t *testing.T) {
	for _, a := range All {
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not return the registered analyzer", a.Name)
		}
	}
	if ByName("nosuch") != nil {
		t.Errorf("ByName(nosuch) = non-nil")
	}
}

// TestRepoTreeCleanUnderFullSuite is the same gate CI runs via
// `go run ./cmd/apslint`: the whole repository, the root module and the
// e2ebench module, must be finding-free. Every suppression in the tree is a
// documented //apslint:allow or fp:ignore, so a regression anywhere — a new
// wall-clock read in eval, a config field missing from a Fingerprint, an
// exported function nothing calls — fails this test.
func TestRepoTreeCleanUnderFullSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository from source")
	}
	pkgs, err := LoadPackages(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("loading repository packages: %v", err)
	}
	whole := false
	for _, p := range pkgs {
		whole = whole || p.Path == "repro/e2ebench"
	}
	if len(pkgs) < 20 || !whole {
		t.Fatalf("loaded %d packages (repro/e2ebench among them: %v); want the whole repository", len(pkgs), whole)
	}
	diags, err := RunPackages(pkgs, All)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}
