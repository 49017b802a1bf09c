package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/artifact"
	"repro/internal/stl"
)

// TestCachedSummaryDamagedEntriesReevaluate pins the stlsummary cache
// entry: a warm lookup replays the stored summary verbatim, and a truncated
// header, a header naming another key, or a garbage payload is discarded
// and re-evaluated to the same bytes.
func TestCachedSummaryDamagedEntriesReevaluate(t *testing.T) {
	raw := []byte("true_bg\n150\n190\n210\n160\n")
	trace, err := stl.FromCSV(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	formula, err := stl.Parse("true_bg < 200")
	if err != nil {
		t.Fatal(err)
	}
	store, err := artifact.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var events []string
	store.Logf = func(format string, _ ...any) { events = append(events, format) }
	lookup := func() []byte {
		t.Helper()
		events = events[:0]
		summary, err := cachedSummary(store, raw, trace, formula)
		if err != nil {
			t.Fatal(err)
		}
		return summary
	}
	stored := func() bool {
		for _, e := range events {
			if e == "artifact cache store: %s (%s)" {
				return true
			}
		}
		return false
	}

	cold := lookup()
	if !stored() {
		t.Fatal("cold lookup did not persist the summary")
	}
	if !bytes.Contains(cold, []byte("satisfied at 3/4 steps")) {
		t.Fatalf("unexpected summary %q", cold)
	}
	if warm := lookup(); stored() || !bytes.Equal(warm, cold) {
		t.Fatalf("warm lookup re-evaluated or changed the summary: %q", warm)
	}

	matches, err := filepath.Glob(filepath.Join(store.Root(), "stlsummary", "v*", "*.bin"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("stlsummary entries = %v (err %v), want one", matches, err)
	}
	path := matches[0]
	entry, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(entry[64:], cold) {
		t.Fatal("entry payload is not the summary text")
	}
	stale := bytes.Clone(entry)
	stale[len("apsrepro-artifact-raw ")] ^= 0x20 // flips the case of the kind's first letter
	for name, bad := range map[string][]byte{
		"truncated-header": entry[:32],
		"stale-header":     stale,
		"garbage-payload":  append(bytes.Clone(entry[:64]), "garbage"...),
	} {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			if got := lookup(); !stored() || !bytes.Equal(got, cold) {
				t.Fatalf("damaged entry was served or re-evaluated differently: %q", got)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, entry) {
				t.Fatalf("re-persisted entry differs from the original (err %v)", err)
			}
		})
	}
}
