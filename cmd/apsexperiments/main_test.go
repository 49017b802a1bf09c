package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

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
	root := t.TempDir()
	entry := func(version int) string {
		dir := filepath.Join(root, "stlsummary", fmt.Sprintf("v%d", version))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "00000000000000aa.bin")
		if err := os.WriteFile(path, []byte("summary"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	stale, current := entry(stl.SummaryFormatVersion-1), entry(stl.SummaryFormatVersion)
	if err := runCachePrune(&cliconfig.Cache{Root: root}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale stlsummary entry survived the prune (stat err %v)", err)
	}
	if _, err := os.Stat(current); err != nil {
		t.Fatalf("current stlsummary entry was pruned: %v", err)
	}
}
