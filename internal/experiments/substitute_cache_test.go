package experiments

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/artifact"
	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/mmapio"
	"repro/internal/monitor"
	"repro/internal/nn"
)

// countSubstitutes swaps substituteFn for a counting wrapper and returns
// the counter plus a restore func.
func countSubstitutes() (trained *atomic.Int32, restore func()) {
	trained = new(atomic.Int32)
	orig := substituteFn
	substituteFn = func(x *mat.Matrix, pred []int, cfg attack.SubstituteConfig) (*nn.Model, error) {
		trained.Add(1)
		return orig(x, pred, cfg)
	}
	return trained, func() { substituteFn = orig }
}

// renderFig10 builds fresh assets from the installed store and renders
// Fig 10.
func renderFig10(t *testing.T, cfg Config) string {
	t.Helper()
	a, err := Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var sb strings.Builder
	if err := Run("fig10", a, &sb); err != nil {
		t.Fatalf("Run(fig10): %v", err)
	}
	return sb.String()
}

// TestWarmFig10LoadsSubstitutes pins that a warm Fig 10 takes all eight
// black-box substitutes from the store: with substitute training made to
// fail, it still renders the cold bytes.
func TestWarmFig10LoadsSubstitutes(t *testing.T) {
	disk, err := artifact.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	SetStore(disk)
	defer SetStore(nil)
	cfg := tinyCacheConfig()
	cfg.Seed = 101

	trained, restore := countSubstitutes()
	cold := renderFig10(t, cfg)
	restore()
	if n := trained.Load(); n != 8 {
		t.Fatalf("cold Fig 10 trained %d substitutes, want 8", n)
	}

	orig := substituteFn
	defer func() { substituteFn = orig }()
	substituteFn = func(*mat.Matrix, []int, attack.SubstituteConfig) (*nn.Model, error) {
		return nil, errors.New("warm Fig 10 must not train a substitute")
	}
	if warm := renderFig10(t, cfg); warm != cold {
		t.Fatalf("warm Fig 10 differs from cold\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
}

// TestSubstituteKeyMoves pins what addresses a stored substitute: the
// training recipe after defaults (Epochs, Seed), the query budget and the
// target monitor's key all move it; spelling out a default does not.
func TestSubstituteKeyMoves(t *testing.T) {
	camp := dataset.CampaignConfig{Simulator: dataset.Glucosym, Profiles: 2, EpisodesPerProfile: 2, Steps: 60, Seed: 5}
	tc := monitor.TrainConfig{Arch: monitor.ArchMLP, Epochs: 2, Seed: 5}
	target := monitorKey(camp, 0.5, tc)
	cfg := attack.SubstituteConfig{Epochs: 2, Seed: 9}
	base := substituteKey(target, blackBoxQueryBudget, cfg)
	if base.Kind != "substitute" || base.Version != attack.SubstituteFormatVersion {
		t.Fatalf("key %v: want kind substitute at version %d", base, attack.SubstituteFormatVersion)
	}

	epochs, seed := cfg, cfg
	epochs.Epochs++
	seed.Seed++
	tc2 := tc
	tc2.Seed++
	moved := map[string]artifact.Key{
		"epochs":  substituteKey(target, blackBoxQueryBudget, epochs),
		"seed":    substituteKey(target, blackBoxQueryBudget, seed),
		"budget":  substituteKey(target, blackBoxQueryBudget+1, cfg),
		"monitor": substituteKey(monitorKey(camp, 0.5, tc2), blackBoxQueryBudget, cfg),
	}
	for name, k := range moved {
		if k == base {
			t.Errorf("changing the %s left the substitute key at %v", name, base)
		}
	}

	explicit := cfg
	explicit.BatchSize, explicit.LR = 256, 0.001
	if k := substituteKey(target, blackBoxQueryBudget, explicit); k != base {
		t.Errorf("spelled-out defaults moved the key: %v vs %v", k, base)
	}
}

// TestCachedSubstituteDamagedEntriesRetrain corrupts a stored substitute
// in each way an entry goes bad and checks that the substitute is retrained
// once, to the same bytes, and re-persisted unchanged.
func TestCachedSubstituteDamagedEntriesRetrain(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	qx := mat.New(40, 5)
	qPred := make([]int, qx.Rows())
	for i := range qPred {
		for j := 0; j < qx.Cols(); j++ {
			qx.Set(i, j, rng.NormFloat64())
		}
		if qx.At(i, 0) > 0 {
			qPred[i] = 1
		}
	}
	queries := func() (*mat.Matrix, []int, error) { return qx, qPred, nil }
	target := artifact.Key{Kind: "monitor", Version: monitor.FormatVersion, Fingerprint: 42}
	cfg := attack.SubstituteConfig{Epochs: 2, Seed: 4}
	saved := func(m *nn.Model) []byte {
		var b bytes.Buffer
		if err := m.Save(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	store, err := artifact.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold, hit, err := CachedSubstitute(store, target, 40, cfg, queries)
	if err != nil || hit {
		t.Fatalf("cold CachedSubstitute: hit=%v err=%v", hit, err)
	}
	warm, hit, err := CachedSubstitute(store, target, 40, cfg, queries)
	if err != nil || !hit || !bytes.Equal(saved(warm), saved(cold)) {
		t.Fatalf("warm CachedSubstitute: hit=%v err=%v, or its weights moved", hit, err)
	}
	path := store.Path(substituteKey(target, 40, cfg))
	entry, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(entry[64:], saved(cold)) {
		t.Fatal("entry payload is not the substitute's Save bytes")
	}
	for name, bad := range damagedEntries(entry) {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			trained, restore := countSubstitutes()
			defer restore()
			m, hit, err := CachedSubstitute(store, target, 40, cfg, queries)
			if err != nil || hit || trained.Load() != 1 {
				t.Fatalf("damaged entry: hit=%v err=%v trainings=%d, want one retrain", hit, err, trained.Load())
			}
			if !bytes.Equal(saved(m), saved(cold)) {
				t.Fatal("retrained substitute differs from the original")
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, entry) {
				t.Fatalf("re-persisted entry differs from the original (err %v)", err)
			}
		})
	}
}

// requireMapping skips where warm campaign loads cannot map.
func requireMapping(t *testing.T) {
	t.Helper()
	if !mmapio.Supported() || mmapio.Disabled() {
		t.Skip("campaign entries are copied, not mapped, here")
	}
}

// TestRepeatedBuildsMapEachCampaignOnce pins that Builds from one warm
// store share one mapping per campaign entry instead of adding one per
// Build.
func TestRepeatedBuildsMapEachCampaignOnce(t *testing.T) {
	requireMapping(t)
	disk, err := artifact.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	SetStore(disk)
	defer SetStore(nil)
	cfg := tinyCacheConfig()
	cfg.Seed = 103
	if _, err := Build(cfg); err != nil { // cold: generates and stores
		t.Fatal(err)
	}
	before := mmapio.Mappings()
	for i := 0; i < 10; i++ {
		a, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, sa := range a.Sims {
			if !sa.Full.Mapped() {
				t.Fatalf("Build %d: %v campaign was not mapped", i, sa.Sim)
			}
		}
	}
	if n := mmapio.Mappings() - before; n != int64(len(Simulators)) {
		t.Fatalf("ten warm Builds made %d mappings, want one per campaign (%d)", n, len(Simulators))
	}
}

// TestCorruptCampaignEntryIsRegeneratedAndServed corrupts a campaign entry
// that an earlier Build has mapped, replacing the file at the same size as
// the store's rename does. The next Build must notice (the file is a new
// inode, so it is mapped anew), regenerate it once, and the Build after
// that must serve the regenerated bytes from the store.
func TestCorruptCampaignEntryIsRegeneratedAndServed(t *testing.T) {
	requireMapping(t)
	disk, err := artifact.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	SetStore(disk)
	defer SetStore(nil)
	cfg := tinyCacheConfig()
	cfg.Seed = 104
	gen, _, restore := countWork()
	defer restore()

	encoded := func(a *Assets) []byte {
		var b bytes.Buffer
		if err := a.Sims[dataset.Glucosym].Full.EncodeColumnar(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	if _, err := Build(cfg); err != nil { // cold
		t.Fatal(err)
	}
	warm, err := Build(cfg) // maps both entries
	if err != nil {
		t.Fatal(err)
	}
	want := encoded(warm)
	path := disk.Path(warm.Sims[dataset.Glucosym].campaign.ArtifactKey())
	entry, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(entry)
	bad[len(bad)/2] ^= 0xff
	if err := os.WriteFile(path+".corrupt", bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(path+".corrupt", path); err != nil {
		t.Fatal(err)
	}

	gen.Store(0)
	if _, err := Build(cfg); err != nil {
		t.Fatal(err)
	}
	if n := gen.Load(); n != 1 {
		t.Fatalf("Build over a corrupt campaign entry generated %d campaigns, want 1", n)
	}
	gen.Store(0)
	again, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := gen.Load(); n != 0 {
		t.Fatalf("Build after regeneration generated %d campaigns, want 0", n)
	}
	if !again.Sims[dataset.Glucosym].Full.Mapped() || !bytes.Equal(encoded(again), want) {
		t.Fatal("the regenerated entry was not served from its new mapping")
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, entry) {
		t.Fatalf("regenerated entry differs from the original (err %v)", err)
	}
}
