package cliconfig

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/dataset"
)

func newFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

// TestAddCommonFlagSurface pins which names the shared bundle registers and
// that the per-CLI defaults land verbatim.
func TestAddCommonFlagSurface(t *testing.T) {
	fs := newFlagSet()
	AddCommon(fs, CommonDefaults{Seed: 7, Parallel: 3, Precision: "f64"})
	for name, def := range map[string]string{
		"seed": "7", "parallel": "3", "precision": "f64", "scenarios": "",
		"cache": "", "no-cache": "false",
	} {
		fl := fs.Lookup(name)
		if fl == nil {
			t.Errorf("-%s not registered", name)
			continue
		}
		if name != "cache" && fl.DefValue != def {
			t.Errorf("-%s default = %q, want %q", name, fl.DefValue, def)
		}
	}

	// An empty Precision default means the CLI has no inference arithmetic
	// to select: the flag must not exist at all (apsim).
	fs = newFlagSet()
	AddCommon(fs, CommonDefaults{Seed: 1})
	if fs.Lookup("precision") != nil {
		t.Error("-precision registered despite empty default")
	}
}

func TestWorkers(t *testing.T) {
	c := &Common{Parallel: -1}
	if _, err := c.Workers(); err == nil {
		t.Error("negative -parallel accepted")
	}
	c.Parallel = 0
	if n, err := c.Workers(); err != nil || n != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, %v; want all cores", n, err)
	}
	c.Parallel = 5
	if n, err := c.Workers(); err != nil || n != 5 {
		t.Errorf("Workers(5) = %d, %v", n, err)
	}
}

func TestCampaignConfig(t *testing.T) {
	c := &Common{Seed: 42, Scenarios: "nominal:1"}
	sh := &Shape{Profiles: 3, Episodes: 4, Steps: 80}
	cfg, err := c.CampaignConfig(dataset.T1DS, sh, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Simulator != dataset.T1DS || cfg.Profiles != 3 || cfg.EpisodesPerProfile != 4 ||
		cfg.Steps != 80 || cfg.Seed != 42 || cfg.Workers != 2 || len(cfg.Scenarios) != 1 {
		t.Errorf("CampaignConfig = %+v", cfg)
	}
	c.Scenarios = "no_such_scenario:1"
	if _, err := c.CampaignConfig(dataset.T1DS, sh, 2); err == nil {
		t.Error("bad -scenarios accepted")
	}
}

func TestParseSimulatorAndArch(t *testing.T) {
	if s, err := ParseSimulator("glucosym"); err != nil || s != dataset.Glucosym {
		t.Errorf("ParseSimulator(glucosym) = %v, %v", s, err)
	}
	if _, err := ParseSimulator("simglucose"); err == nil {
		t.Error("unknown simulator accepted")
	}
	if _, err := ParseArch("cnn"); err == nil {
		t.Error("unknown architecture accepted")
	}
}

func TestShardsValidate(t *testing.T) {
	cases := []struct {
		count, index int
		ok           bool
	}{
		{0, -1, true}, // unsharded
		{0, 0, false}, // -shard without -shards
		{-2, -1, false},
		{4, -1, true}, // all shards in-process
		{4, 0, true},
		{4, 3, true},
		{4, 4, false},
		{4, -2, false},
	}
	for _, tc := range cases {
		s := &Shards{Count: tc.count, Index: tc.index}
		if err := s.Validate(); (err == nil) != tc.ok {
			t.Errorf("Validate(count=%d, index=%d) = %v, want ok=%v", tc.count, tc.index, err, tc.ok)
		}
	}
	if (&Shards{}).Enabled() {
		t.Error("zero Shards counts as enabled")
	}
	if !(&Shards{Count: 2, Index: -1}).Enabled() {
		t.Error("-shards 2 not enabled")
	}
}

// TestHelpTextNormalizesMachineDependentDefaults pins the golden
// stabilizer: the resolved cache root and a core-count -parallel default
// are replaced by placeholders, while an unrelated flag that happens to
// share the core count keeps its literal default.
func TestHelpTextNormalizesMachineDependentDefaults(t *testing.T) {
	nproc := runtime.GOMAXPROCS(0)
	fs := newFlagSet()
	AddCommon(fs, CommonDefaults{Seed: 1, Parallel: nproc, Precision: "f64"})
	fs.Int("decoy", nproc, "a default that coincides with the core count")
	out := HelpText(fs)

	if !strings.Contains(out, "(default $NPROC)") {
		t.Errorf("-parallel default not normalized:\n%s", out)
	}
	if !strings.Contains(out, fmt.Sprintf("core count (default %d)", nproc)) {
		t.Errorf("decoy default was normalized too:\n%s", out)
	}
	if root := DefaultRoot(); root != "" {
		if strings.Contains(out, root) {
			t.Errorf("cache root leaked into help text:\n%s", out)
		}
		if !strings.Contains(out, "$APSREPRO_CACHE_DEFAULT") {
			t.Errorf("cache root placeholder missing:\n%s", out)
		}
	}
}

// TestFlagsOpen pins how the -cache/-no-cache pair resolves into a store:
// -cache DIR persists entries under DIR (a miss, then a hit), and -no-cache
// misses on every lookup.
func TestFlagsOpen(t *testing.T) {
	key := artifact.Key{Kind: "campaign", Version: 1, Fingerprint: 0xabcdef}
	lookup := func(s artifact.Store) bool {
		t.Helper()
		var got string
		hit, err := s.GetOrCreateFile(key,
			artifact.ReaderLoad(func(r io.Reader) error {
				b, err := io.ReadAll(r)
				got = string(b)
				return err
			}),
			func() error { got = "payload:flags"; return nil },
			func(w io.Writer) error { _, err := io.WriteString(w, got); return err })
		if err != nil {
			t.Fatal(err)
		}
		if got != "payload:flags" {
			t.Fatalf("payload %q", got)
		}
		return hit
	}

	fs := newFlagSet()
	c := AddCache(fs)
	root := filepath.Join(t.TempDir(), "cacheroot")
	if err := fs.Parse([]string{"-cache", root}); err != nil {
		t.Fatal(err)
	}
	if s := c.Open(nil); lookup(s) || !lookup(s) {
		t.Fatalf("-cache %s: want a miss that persists, then a hit", root)
	}
	disk, err := artifact.NewDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(disk.Path(key)); err != nil {
		t.Fatalf("entry not persisted under the cache root: %v", err)
	}

	fs2 := newFlagSet()
	c2 := AddCache(fs2)
	if err := fs2.Parse([]string{"-no-cache"}); err != nil {
		t.Fatal(err)
	}
	if s := c2.Open(nil); lookup(s) || lookup(s) {
		t.Fatal("-no-cache: want every lookup to miss")
	}
}
