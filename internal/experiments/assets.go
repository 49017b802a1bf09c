package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/monitor"
	"repro/internal/sweep"
)

// MonitorNames lists the five monitors of Table III in report order.
var MonitorNames = []string{"rule_based", "mlp", "lstm", "mlp_custom", "lstm_custom"}

// MLMonitorNames lists the four ML monitors of the robustness figures.
var MLMonitorNames = []string{"mlp", "mlp_custom", "lstm", "lstm_custom"}

// Simulators lists both case studies in report order.
var Simulators = []dataset.Simulator{dataset.Glucosym, dataset.T1DS}

// workerCount is the configured sweep fan-out; 0 selects GOMAXPROCS.
var workerCount atomic.Int32

// Workers returns the configured sweep fan-out (0 = GOMAXPROCS).
func Workers() int { return int(workerCount.Load()) }

// precisionMode holds the configured inference precision (empty = f64).
var precisionMode atomic.Value // monitor.Precision

// Precision returns the configured inference precision.
func Precision() monitor.Precision {
	if p, ok := precisionMode.Load().(monitor.Precision); ok {
		return p
	}
	return monitor.F64
}

// Configure installs the CLI-resolved worker count and inference precision
// in one call — the single line apsexperiments runs after parsing the
// shared cliconfig bundle. The single-monitor CLIs pass both as explicit
// eval.Options instead.
//
// workers is how many goroutines the experiment grid sweeps fan out to:
// n <= 0 restores the default (runtime.GOMAXPROCS(0)); n == 1 runs every
// sweep serially. Results are byte-identical at every setting: per-cell RNG
// seeds are derived from (config seed, cell index), never from execution
// order.
//
// precision selects the inference arithmetic for every evaluation and
// attack surface: monitor.F64 (the default, bit-deterministic; "" means
// the same) or monitor.F32 (the frozen float32 fast path). Unlike workers
// it changes report contents (by float32 rounding), so it enters report
// fingerprints. An unknown precision is an error and changes neither
// setting.
func Configure(workers int, precision monitor.Precision) error {
	norm, err := monitor.ParsePrecision(string(precision))
	if err != nil {
		return err
	}
	if workers < 0 {
		workers = 0
	}
	precisionMode.Store(norm)
	workerCount.Store(int32(workers))
	return nil
}

// lazy is one memoized slot: the sync.Once guarantees exactly one
// resolution per key no matter how many sweep cells request it
// concurrently.
type lazy[T any] struct {
	once sync.Once
	v    T
	err  error
}

// get resolves the slot with fill on first use and returns the memoized
// result ever after.
func (l *lazy[T]) get(fill func() (T, error)) (T, error) {
	l.once.Do(func() { l.v, l.err = fill() })
	return l.v, l.err
}

// slot returns the keyed slot of m, creating it under mu on first request.
func slot[K comparable, T any](mu *sync.Mutex, m map[K]*lazy[T], key K) *lazy[T] {
	mu.Lock()
	defer mu.Unlock()
	l, ok := m[key]
	if !ok {
		l = &lazy[T]{}
		m[key] = l
	}
	return l
}

// SimAssets bundles everything evaluated for one simulator. Monitor lookup
// is two-tier: the in-process memory tier (the lazy slots below)
// guarantees one resolution per (simulator, monitor) key per process, and
// that single resolution consults the artifact store (disk tier) before
// falling back to training — so a warm run loads weights instead of
// retraining, and a cold run persists what it trains. All accessors are
// safe for concurrent use.
type SimAssets struct {
	Sim   dataset.Simulator
	Full  *dataset.Dataset
	Train *dataset.Dataset
	Test  *dataset.Dataset

	cfg Config
	// campaign is the config that generated Full; monitor artifact keys mix
	// in its fingerprint so a changed campaign invalidates trained monitors.
	campaign dataset.CampaignConfig

	mu       sync.Mutex
	monitors map[string]*lazy[monitor.Monitor]
	surfaces map[string]*lazy[*attackSurface]

	labelsOnce sync.Once
	testLabels []int
}

// Monitor returns the named monitor, resolving it on first use (from the
// artifact store when possible, by training otherwise). Concurrent callers
// for the same name share a single resolution.
func (s *SimAssets) Monitor(name string) (monitor.Monitor, error) {
	return slot(&s.mu, s.monitors, name).get(func() (monitor.Monitor, error) { return s.trainMonitor(name) })
}

// MLMonitor returns a trained ML monitor by name.
func (s *SimAssets) MLMonitor(name string) (*monitor.MLMonitor, error) {
	m, err := s.Monitor(name)
	if err != nil {
		return nil, err
	}
	ml, ok := m.(*monitor.MLMonitor)
	if !ok {
		return nil, fmt.Errorf("experiments: %q is not an ML monitor", name)
	}
	return ml, nil
}

// TestLabels returns the memoized test-set label vector. Callers must treat
// the slice as read-only — it is shared across sweep cells.
func (s *SimAssets) TestLabels() []int {
	s.labelsOnce.Do(func() { s.testLabels = s.Test.Labels() })
	return s.testLabels
}

// monitorSpecs maps each ML monitor name to its training recipe.
var monitorSpecs = map[string]struct {
	arch     monitor.Arch
	semantic bool
}{
	"mlp":         {monitor.ArchMLP, false},
	"mlp_custom":  {monitor.ArchMLP, true},
	"lstm":        {monitor.ArchLSTM, false},
	"lstm_custom": {monitor.ArchLSTM, true},
}

// trainConfig resolves a monitor name into its training recipe. The
// rule-based monitor is untrained: it reports ml=false and the zero
// TrainConfig (its behavior derives entirely from the campaign's BGTarget,
// which report fingerprints capture through the campaign config).
func (s *SimAssets) trainConfig(name string) (tc monitor.TrainConfig, ml bool, err error) {
	if name == "rule_based" {
		return monitor.TrainConfig{}, false, nil
	}
	spec, ok := monitorSpecs[name]
	if !ok {
		return monitor.TrainConfig{}, false, fmt.Errorf("experiments: unknown monitor %q (known: %v)", name, MonitorNames)
	}
	h1, h2 := s.cfg.MLPHidden1, s.cfg.MLPHidden2
	if spec.arch == monitor.ArchLSTM {
		h1, h2 = s.cfg.LSTMHidden1, s.cfg.LSTMHidden2
	}
	return monitor.TrainConfig{
		Arch:           spec.arch,
		Semantic:       spec.semantic,
		SemanticWeight: s.cfg.SemanticWeight,
		Epochs:         s.cfg.Epochs,
		Hidden1:        h1,
		Hidden2:        h2,
		Seed:           s.cfg.Seed + 17,
		// The sweep's -parallel setting also caps the in-training fan-out
		// (Workers never enters the cache fingerprint: weights are
		// byte-identical at every setting).
		Workers: Workers(),
	}, true, nil
}

// trainMonitor resolves one monitor: rule-based monitors are constructed
// directly (cheaper than any cache), ML monitors go through the artifact
// store and fall back to training on a miss. Training seeds depend only on
// the config, so the result is identical whichever sweep cell triggers the
// run — and bit-identical again when a later process loads the persisted
// weights.
func (s *SimAssets) trainMonitor(name string) (monitor.Monitor, error) {
	tc, ml, err := s.trainConfig(name)
	if err != nil {
		return nil, err
	}
	if !ml {
		return monitor.NewRuleBased(s.cfg.BGTarget), nil
	}
	m, _, err := CachedMonitor(ActiveStore(), s.Train, s.campaign, s.cfg.TrainFrac, tc)
	if err != nil {
		return nil, fmt.Errorf("experiments: train %s on %v: %w", name, s.Sim, err)
	}
	return m, nil
}

// ReportConfig addresses the evaluation report of the named monitor on this
// simulator's test split — computable without resolving the monitor, which
// is what lets warm report runs skip training and inference entirely.
func (s *SimAssets) ReportConfig(name string) (eval.ReportConfig, error) {
	tc, _, err := s.trainConfig(name)
	if err != nil {
		return eval.ReportConfig{}, err
	}
	return eval.ReportConfig{
		Campaign:  s.campaign,
		TrainFrac: s.cfg.TrainFrac,
		Monitor:   name,
		Train:     tc,
		Tolerance: s.cfg.ToleranceDelta,
		Precision: Precision(),
	}, nil
}

// Report returns the sliced evaluation report of the named monitor on this
// simulator's test split, serving it from the artifact store when a current
// entry exists (zero monitor inferences) and evaluating — resolving the
// monitor on the way — otherwise.
func (s *SimAssets) Report(name string) (*eval.Report, error) {
	rc, err := s.ReportConfig(name)
	if err != nil {
		return nil, err
	}
	rep, _, err := eval.CachedReport(ActiveStore(), rc, func() (*eval.Report, error) {
		m, err := s.Monitor(name)
		if err != nil {
			return nil, err
		}
		return eval.Evaluate(m, s.Test, eval.Options{Tolerance: s.cfg.ToleranceDelta, Workers: Workers(), Precision: Precision()})
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: report %s on %v: %w", name, s.Sim, err)
	}
	return rep, nil
}

// Assets holds datasets and (lazily trained) monitors for both simulators.
type Assets struct {
	Config Config
	Sims   map[dataset.Simulator]*SimAssets
}

// Build assembles the simulation campaigns for both simulators in parallel,
// loading each from the artifact store when a current entry exists and
// simulating (then persisting) it otherwise. The split and normalizer fit
// are deterministic given the campaign, so they re-run cheaply either way.
// Monitors are not trained here: each is resolved on first use, so a run
// that touches only some monitors never pays for the rest, and parallel
// sweep cells needing the same monitor share one resolution.
func Build(cfg Config) (*Assets, error) {
	sims, err := sweep.Map(Workers(), len(Simulators), func(i int) (*SimAssets, error) {
		simu := Simulators[i]
		camp := dataset.CampaignConfig{
			Simulator:          simu,
			Profiles:           cfg.Profiles,
			EpisodesPerProfile: cfg.EpisodesPerProfile,
			Steps:              cfg.Steps,
			Window:             cfg.Window,
			Horizon:            cfg.Horizon,
			BGTarget:           cfg.BGTarget,
			Seed:               cfg.Seed,
			Scenarios:          cfg.Scenarios,
			// Episode generation draws from the same worker budget as the
			// sweeps; Workers never enters the campaign fingerprint.
			Workers: Workers(),
		}
		ds, _, err := CachedCampaign(ActiveStore(), camp)
		if err != nil {
			return nil, fmt.Errorf("experiments: generate %v: %w", simu, err)
		}
		train, test, err := ds.Split(cfg.TrainFrac)
		if err != nil {
			return nil, fmt.Errorf("experiments: split %v: %w", simu, err)
		}
		return &SimAssets{
			Sim:      simu,
			Full:     ds,
			Train:    train,
			Test:     test,
			cfg:      cfg,
			campaign: camp,
			monitors: make(map[string]*lazy[monitor.Monitor], len(MonitorNames)),
			surfaces: make(map[string]*lazy[*attackSurface], len(MLMonitorNames)),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	a := &Assets{Config: cfg, Sims: make(map[dataset.Simulator]*SimAssets, len(sims))}
	for _, sa := range sims {
		a.Sims[sa.Sim] = sa
	}
	return a, nil
}

var (
	sharedMu sync.Mutex
	shared   = map[string]*Assets{}
)

// Shared returns process-cached assets for cfg, building them on first use.
// Experiments and benchmarks share one build per configuration.
func Shared(cfg Config) (*Assets, error) {
	key := cfg.String()
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if a, ok := shared[key]; ok {
		return a, nil
	}
	a, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	shared[key] = a
	return a, nil
}
