// Package eval is the unified monitor-scoring subsystem: it owns the
// episode-level streaming evaluator behind every confusion-matrix number the
// experiments report, and produces sliced evaluation reports (per scenario,
// per fault type, and overall) with detection-latency statistics.
//
// Evaluation is the third parallel + cached stage of a run, alongside
// campaign generation and monitor training: Evaluate fans the test episodes
// out over the shared sweep worker budget — predictions, tolerance-window
// scoring, and slice tagging all happen on the worker that owns the episode
// — and reduces the per-episode results in episode order, so a report is
// byte-identical at every worker count. CachedReport persists finished
// reports content-addressed in the artifact store, so a warm run serves the
// report without a single monitor inference.
package eval

import (
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/sweep"
)

// SliceUnknown keys the slice that absorbs episodes without provenance
// (datasets persisted before Scenarios/Faults were recorded, or hand-built
// traces).
const SliceUnknown = "unknown"

// Options configures one evaluation pass.
type Options struct {
	// Tolerance is the δ of the Table II tolerance-window confusion matrix
	// (and of the detection-latency early-warning window).
	Tolerance int
	// Workers caps how many goroutines episodes fan out to (0 = all cores,
	// 1 = serial; additionally clamped by the shared sweep budget). Reports
	// are byte-identical at every setting, provided the monitor's Classify
	// is safe for concurrent calls and free of cross-batch state — true of
	// the rule-based and ML monitors. The stateful verdict filters
	// (monitor.MOfN, monitor.CUSUM) are not monitors and never run in an
	// evaluation pass: serve gives each session private instances.
	Workers int
	// Precision selects the inference arithmetic of ML monitors ("" is
	// monitor.F64). Other monitors — e.g. rule_based, which has no
	// arithmetic to quantize — classify the same at either precision.
	// Unlike Workers, precision changes report contents (by float32
	// rounding), so it is part of the report fingerprint.
	Precision monitor.Precision
}

// PrecisionF64 and PrecisionF32 are the former names of monitor.F64 and
// monitor.F32, kept for callers outside this module.
const (
	PrecisionF64 = monitor.F64
	PrecisionF32 = monitor.F32
)

// BinaryPredictions converts monitor verdicts into the 0/1 prediction vector
// the metrics operate on — the one canonical copy of the verdict→prediction
// loop.
func BinaryPredictions(verdicts []monitor.Verdict) []int {
	pred := make([]int, len(verdicts))
	for i, v := range verdicts {
		if v.Unsafe {
			pred[i] = 1
		}
	}
	return pred
}

// Predict classifies samples with a monitor at precision p and returns 0/1
// predictions — the one sample-level entry point: ML monitors classify
// through MLMonitor.ClassifyInto, every other monitor through Classify.
func Predict(m monitor.Monitor, p monitor.Precision, samples []dataset.Sample) ([]int, error) {
	ml, ok := m.(*monitor.MLMonitor)
	if !ok {
		verdicts, err := m.Classify(samples)
		if err != nil {
			return nil, err
		}
		return BinaryPredictions(verdicts), nil
	}
	x, err := ml.InputMatrix(samples)
	if err != nil {
		return nil, err
	}
	pred := make([]int, len(samples))
	if err := ml.ClassifyInto(p, x, pred, nil); err != nil {
		return nil, err
	}
	return pred, nil
}

// Evaluate scores a monitor on a dataset episode by episode: each episode is
// classified, scored against the tolerance-window ground truth, and tagged
// with its scenario and fault provenance on a sweep worker; the per-episode
// results reduce in episode order into a sliced Report. Inference happens
// per episode on the worker, so no evaluation pass ever materializes a
// whole-dataset prediction vector. Classify runs concurrently across
// episodes at Workers > 1 — see Options.Workers for the concurrency
// contract this places on the monitor.
func Evaluate(m monitor.Monitor, ds *dataset.Dataset, opts Options) (*Report, error) {
	p, err := monitor.ParsePrecision(string(opts.Precision))
	if err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	return evaluate(m.Name(), ds, opts, func(_ int, samples []dataset.Sample) ([]int, error) {
		return Predict(m, p, samples)
	})
}

// EvaluatePredictions builds the same sliced Report from an already-computed
// whole-dataset prediction vector — the entry point for perturbation
// experiments whose attacks operate on the full assembled input matrix
// (FGSM/PGD/Gaussian in experiments) before episode scoring.
func EvaluatePredictions(monitorName string, pred []int, ds *dataset.Dataset, opts Options) (*Report, error) {
	if len(pred) != ds.Len() {
		return nil, fmt.Errorf("eval: %d predictions for %d samples", len(pred), ds.Len())
	}
	return evaluate(monitorName, ds, opts, func(ep int, _ []dataset.Sample) ([]int, error) {
		r := ds.EpisodeIndex[ep]
		return pred[r[0]:r[1]], nil
	})
}

// episodeResult is one episode's contribution to a report.
type episodeResult struct {
	scenario, fault  string
	samples          int
	conf             metrics.Confusion
	latency          int
	detected, hazard bool
}

// evaluate fans episodes out over the sweep budget and reduces in episode
// order. predict returns the episode's 0/1 predictions (either by running
// the monitor on the episode's samples, or by slicing a precomputed vector).
func evaluate(monitorName string, ds *dataset.Dataset, opts Options, predict func(ep int, samples []dataset.Sample) ([]int, error)) (*Report, error) {
	if len(ds.EpisodeIndex) == 0 {
		return nil, fmt.Errorf("eval: dataset has no episodes")
	}
	if opts.Tolerance < 0 {
		return nil, fmt.Errorf("eval: negative tolerance %d", opts.Tolerance)
	}
	results, err := sweep.Map(opts.Workers, len(ds.EpisodeIndex), func(ep int) (episodeResult, error) {
		r := ds.EpisodeIndex[ep]
		samples := ds.Samples[r[0]:r[1]]
		pred, err := predict(ep, samples)
		if err != nil {
			return episodeResult{}, fmt.Errorf("eval: episode %d: %w", ep, err)
		}
		truth := make([]int, len(samples))
		for i, s := range samples {
			if s.HazardNow {
				truth[i] = 1
			}
		}
		conf, err := metrics.ToleranceWindow(pred, truth, opts.Tolerance)
		if err != nil {
			return episodeResult{}, fmt.Errorf("eval: episode %d: %w", ep, err)
		}
		lat, detected, hazard, err := metrics.DetectionLatency(pred, truth, opts.Tolerance)
		if err != nil {
			return episodeResult{}, fmt.Errorf("eval: episode %d: %w", ep, err)
		}
		return episodeResult{
			scenario: provenance(ds.Scenarios, len(ds.EpisodeIndex), ep),
			fault:    provenance(ds.Faults, len(ds.EpisodeIndex), ep),
			samples:  len(samples),
			conf:     conf,
			latency:  lat,
			detected: detected,
			hazard:   hazard,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{
		FormatVersion: FormatVersion,
		Simulator:     ds.Simulator,
		Monitor:       monitorName,
		Tolerance:     opts.Tolerance,
	}
	overall := newSliceAccum()
	scenarios := newAccumSet()
	faults := newAccumSet()
	for _, er := range results {
		overall.add(er)
		scenarios.add(er.scenario, er)
		faults.add(er.fault, er)
	}
	rep.Episodes = overall.episodes
	rep.Samples = overall.samples
	rep.Overall = overall.finish("overall")
	rep.Scenarios = scenarios.finish()
	rep.Faults = faults.finish()
	return rep, nil
}

// provenance resolves one episode's slice key from a per-episode provenance
// vector: datasets without (or with misaligned/empty) provenance degrade to
// the single SliceUnknown slice instead of failing.
func provenance(names []string, episodes, ep int) string {
	if len(names) != episodes || names[ep] == "" {
		return SliceUnknown
	}
	return names[ep]
}

// sliceAccum accumulates one slice's episodes in episode order.
type sliceAccum struct {
	episodes, samples int
	conf              metrics.Confusion
	latencies         []int
	missed            int
}

func newSliceAccum() *sliceAccum { return &sliceAccum{} }

func (a *sliceAccum) add(er episodeResult) {
	a.episodes++
	a.samples += er.samples
	a.conf.Add(er.conf)
	if er.hazard {
		if er.detected {
			a.latencies = append(a.latencies, er.latency)
		} else {
			a.missed++
		}
	}
}

func (a *sliceAccum) finish(key string) Slice {
	// The raw latency multiset is persisted in sorted order — the canonical
	// form under which Merge's concatenate-and-resort re-aggregation is
	// byte-identical to this single-pass summary (nil when empty, matching
	// the JSON round trip of the omitempty field).
	var lats []int
	if len(a.latencies) > 0 {
		lats = make([]int, len(a.latencies))
		copy(lats, a.latencies)
		sort.Ints(lats)
	}
	return Slice{
		Key:       key,
		Episodes:  a.episodes,
		Samples:   a.samples,
		Confusion: a.conf,
		F1:        a.conf.F1(),
		Latencies: lats,
		Latency:   metrics.SummarizeLatency(a.latencies, a.missed),
	}
}

// accumSet groups episode results by slice key; finished slices come out
// sorted by key so reports are deterministic regardless of accumulation
// order.
type accumSet struct {
	byKey map[string]*sliceAccum
}

func newAccumSet() *accumSet { return &accumSet{byKey: make(map[string]*sliceAccum)} }

func (s *accumSet) add(key string, er episodeResult) {
	a, ok := s.byKey[key]
	if !ok {
		a = newSliceAccum()
		s.byKey[key] = a
	}
	a.add(er)
}

func (s *accumSet) finish() []Slice {
	keys := make([]string, 0, len(s.byKey))
	for k := range s.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Slice, 0, len(keys))
	for _, k := range keys {
		out = append(out, s.byKey[k].finish(k))
	}
	return out
}
