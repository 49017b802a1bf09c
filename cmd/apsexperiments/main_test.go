package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/attack"
	"repro/internal/cliconfig"
	"repro/internal/stl"
)

// TestHelpGolden pins apsexperiments's full flag surface — names, defaults, and
// usage text, shared bundles included — against the checked-in golden.
// Refresh with APSREPRO_UPDATE_GOLDENS=1 go test ./cmd/...
func TestHelpGolden(t *testing.T) {
	fs := flag.NewFlagSet("apsexperiments", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	addFlags(fs)
	cliconfig.CheckHelpGolden(t, fs, "testdata/help.golden")
}

// TestCachePrunePrunesStaleSTLSummaries pins that -cache-prune covers the
// summaries stlcheck caches: a stale-version stlsummary entry goes, the
// current-version one stays.
func TestCachePrunePrunesStaleSTLSummaries(t *testing.T) {
	checkPrunesStale(t, "stlsummary", stl.SummaryFormatVersion)
}

// TestCachePrunePrunesStaleSubstitutes pins the same for the Fig 10
// black-box substitutes.
func TestCachePrunePrunesStaleSubstitutes(t *testing.T) {
	checkPrunesStale(t, "substitute", attack.SubstituteFormatVersion)
}

// checkPrunesStale plants an entry of kind at version−1 and one at
// version, runs -cache-prune, and checks that only the stale one went.
func checkPrunesStale(t *testing.T, kind string, version int) {
	t.Helper()
	root := t.TempDir()
	entry := func(version int) string {
		dir := filepath.Join(root, kind, fmt.Sprintf("v%d", version))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "00000000000000aa.bin")
		if err := os.WriteFile(path, []byte(kind), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	stale, current := entry(version-1), entry(version)
	if err := runCachePrune(&cliconfig.Cache{Root: root}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale %s entry survived the prune (stat err %v)", kind, err)
	}
	if _, err := os.Stat(current); err != nil {
		t.Fatalf("current %s entry was pruned: %v", kind, err)
	}
}
