package experiments

import (
	"io"
	"sync"

	"repro/internal/artifact"
	"repro/internal/dataset"
	"repro/internal/monitor"
)

// Production seams: the artifact-store lookups below call these instead of
// the packages directly so tests can count (or forbid) real work. A warm
// run with an identical config must never reach either one.
var (
	generateFn = dataset.Generate
	trainFn    = monitor.Train
)

var (
	storeMu    sync.RWMutex
	assetStore artifact.Store
)

// SetStore installs the artifact store behind the asset pipeline; nil (the
// default) disables persistence, leaving only the in-process memory tier.
// CLIs call it once at startup with the store resolved from -cache/-no-cache.
func SetStore(s artifact.Store) {
	storeMu.Lock()
	assetStore = s
	storeMu.Unlock()
}

// ActiveStore returns the installed artifact store (nil when disabled).
func ActiveStore() artifact.Store {
	storeMu.RLock()
	defer storeMu.RUnlock()
	return assetStore
}

// CachedCampaign returns the labeled dataset for cfg, loading it from the
// artifact store when a current entry exists and generating (then
// persisting) it otherwise. Entries persist in the columnar binary
// encoding and load zero-copy (mmap-ed feature-column views). A nil store always generates. The reported hit
// tells callers whether simulation was skipped.
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
	if store == nil {
		m, err = trainFn(train, cfg)
		return m, false, err
	}
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
