package experiments

import (
	"io"
	"sync"

	"repro/internal/artifact"
	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/monitor"
	"repro/internal/nn"
)

// Production seams: the artifact-store lookups below call these instead of
// the packages directly so tests can count (or forbid) real work. A warm
// run with an identical config must never reach any of them.
var (
	generateFn   = dataset.Generate
	trainFn      = monitor.Train
	substituteFn = attack.TrainSubstitute
)

var (
	storeMu    sync.RWMutex
	assetStore artifact.Store = artifact.Disabled{}
)

// SetStore installs the artifact store behind the asset pipeline; nil
// installs artifact.Disabled{} (the default), which disables persistence
// and leaves only the in-process memory tier. CLIs call it once at startup
// with the store resolved from -cache/-no-cache.
func SetStore(s artifact.Store) {
	if s == nil {
		s = artifact.Disabled{}
	}
	storeMu.Lock()
	assetStore = s
	storeMu.Unlock()
}

// ActiveStore returns the installed artifact store (artifact.Disabled{}
// when persistence is off).
func ActiveStore() artifact.Store {
	storeMu.RLock()
	defer storeMu.RUnlock()
	return assetStore
}

// CachedCampaign returns the labeled dataset for cfg, loading it from the
// artifact store when a current entry exists and generating (then
// persisting) it otherwise. Entries persist in the columnar binary
// encoding and load zero-copy (mmap-ed feature-column views). The reported
// hit tells callers whether simulation was skipped.
func CachedCampaign(store artifact.Store, cfg dataset.CampaignConfig) (ds *dataset.Dataset, hit bool, err error) {
	return dataset.CachedColumnar(store, cfg.ArtifactKey(),
		func() (*dataset.Dataset, error) { return generateFn(cfg) }, true)
}

// monitorKey addresses a trained monitor by everything that determines its
// weights: the campaign that produced the data, the split fraction (the
// split shuffle and normalizer fit are deterministic given both), and the
// full training recipe.
func monitorKey(camp dataset.CampaignConfig, trainFrac float64, cfg monitor.TrainConfig) artifact.Key {
	return artifact.Key{
		Kind:    "monitor",
		Version: monitor.FormatVersion,
		Fingerprint: artifact.Fingerprint("monitor", camp.Fingerprint(),
			"split", trainFrac, dataset.FormatVersion, cfg.Fingerprint()),
	}
}

// CachedMonitor returns the monitor trained on train (the training split of
// the campaign camp at trainFrac), loading it from the artifact store when
// a current entry exists and training (then persisting) it otherwise.
func CachedMonitor(store artifact.Store, train *dataset.Dataset, camp dataset.CampaignConfig, trainFrac float64, cfg monitor.TrainConfig) (m *monitor.MLMonitor, hit bool, err error) {
	hit, err = store.GetOrCreateFile(monitorKey(camp, trainFrac, cfg),
		artifact.ReaderLoad(func(r io.Reader) error {
			var lerr error
			m, lerr = monitor.Load(r)
			return lerr
		}),
		func() error {
			var terr error
			m, terr = trainFn(train, cfg)
			return terr
		},
		func(w io.Writer) error { return m.Save(w) },
	)
	return m, hit, err
}

// substituteKey addresses a black-box substitute by everything that
// determines its weights: the target monitor (its artifact key, which fixes
// the query inputs and the labels the target answers with), the query
// budget, and the substitute's training recipe. Precision is deliberately
// absent: the attacker's query labels come from MLMonitor.PredictClasses,
// which runs f64 at every -precision.
func substituteKey(target artifact.Key, budget int, cfg attack.SubstituteConfig) artifact.Key {
	return artifact.Key{
		Kind:    "substitute",
		Version: attack.SubstituteFormatVersion,
		Fingerprint: artifact.Fingerprint("substitute", target.Fingerprint,
			"budget", budget, cfg.Fingerprint()),
	}
}

// CachedSubstitute returns the black-box substitute of the target monitor
// stored under target, loading it from the artifact store when a current
// entry exists and training (then persisting) it otherwise. queries builds
// the attacker's query set, at most budget rows of inputs and the target's
// answers; it runs only on a miss.
func CachedSubstitute(store artifact.Store, target artifact.Key, budget int, cfg attack.SubstituteConfig,
	queries func() (*mat.Matrix, []int, error)) (sub *nn.Model, hit bool, err error) {
	create := func() error {
		qx, qPred, cerr := queries()
		if cerr != nil {
			return cerr
		}
		sub, cerr = substituteFn(qx, qPred, cfg)
		return cerr
	}
	hit, err = store.GetOrCreateFile(substituteKey(target, budget, cfg),
		artifact.ReaderLoad(func(r io.Reader) error {
			var lerr error
			sub, lerr = nn.Load(r)
			return lerr
		}),
		create,
		func(w io.Writer) error { return sub.Save(w) },
	)
	return sub, hit, err
}
