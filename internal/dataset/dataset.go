// Package dataset turns closed-loop simulation campaigns into the labeled
// monitor datasets of the paper: sliding windows over the multivariate
// time series (sensor values and control commands), hazard-ahead labels
// (Eq 1), aggregated features f(µ(X_t)) for the MLP monitors, raw windows
// for the LSTM monitors, and the STL knowledge indicator used by the
// semantic loss (Eq 2). Datasets are stored as artifact section
// containers (EncodeColumnar), whose normalizer encoding monitors share
// (EncodeNormalizer).
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/controller"
	"repro/internal/mmapio"
	"repro/internal/sim"
	"repro/internal/stl"
)

// Per-step features in the LSTM window, in column order.
const (
	SeqFeatBG = iota
	SeqFeatIOB
	SeqFeatDeltaBG
	SeqFeatDeltaIOB
	SeqFeatRate
	SeqFeatAction
	SeqFeatureCount
)

// Aggregated features for the MLP monitor, in column order.
const (
	MLPFeatMeanBG = iota
	MLPFeatSlopeBG
	MLPFeatMeanIOB
	MLPFeatSlopeIOB
	MLPFeatMeanRate
	MLPFeatLastBG
	MLPFeatLastIOB
	MLPFeatAction
	MLPFeatureCount
)

// Sample is one labeled monitor input at a time step.
type Sample struct {
	// MLP is the aggregated feature vector (MLPFeatureCount wide).
	MLP []float64
	// Seq is the flattened raw window (Window × SeqFeatureCount wide,
	// step-major).
	Seq []float64
	// Label is 1 when a hazard occurs within the prediction horizon (Eq 1).
	Label int
	// Knowledge is the indicator I(⋁Φ_h) of Eq 2, evaluated on the
	// aggregated window context.
	Knowledge float64

	// Aggregated context used by the rule-based monitor and Fig 3.
	BG, DeltaBG, DeltaIOB float64
	Action                controller.Action

	// Provenance.
	EpisodeID int
	Step      int
	// HazardNow marks a hazard at this step (used by the tolerance-window
	// ground truth G(t)).
	HazardNow bool
}

// Dataset is an ordered set of samples grouped into episodes.
type Dataset struct {
	Simulator string
	Window    int // W: steps per monitor window
	Horizon   int // T: hazard prediction horizon in steps
	BGTarget  float64
	Samples   []Sample
	// EpisodeIndex[i] is the [from, to) sample range of episode i.
	EpisodeIndex [][2]int
	// Scenarios[i] names the scenario generator that produced episode i
	// (provenance; empty entries mean the trace was hand-built).
	Scenarios []string `json:",omitempty"`
	// Faults[i] names the fault type injected into episode i ("none" for
	// fault-free episodes). Like Scenarios it is per-episode provenance,
	// aligned with EpisodeIndex; nil on datasets persisted before it was
	// recorded.
	Faults []string `json:",omitempty"`

	// Normalization statistics (per feature column, computed on this set or
	// inherited from the training set).
	MLPNorm *Normalizer
	SeqNorm *Normalizer

	// backing pins the mmap-ed artifact region a columnar load borrowed
	// its feature columns from (nil for generated datasets and ones
	// decoded from memory). When set, Sample.MLP/Sample.Seq and the normalizer
	// statistics may be read-only views into mapped pages: the mapping
	// lacks PROT_WRITE, so writing through them faults. Split/Filter/
	// subset copy Sample structs but share the column views, so derived
	// datasets inherit the contract (the viewsafe lint analyzer enforces
	// it repo-wide). Regions are process-lifetime — never unmapped — so
	// views can never dangle.
	backing *mmapio.Region
}

// Mapped reports whether the dataset's feature columns borrow mmap-ed
// artifact pages (the zero-copy load path) rather than owning their
// memory. Benchmarks and tests use it to confirm which path a load took.
//
//apslint:allow reach BenchmarkCampaignLoad and the columnar tests check through it which load path ran
func (d *Dataset) Mapped() bool { return d.backing != nil && d.backing.Mapped() }

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Samples) }

// UnsafeFraction returns the fraction of samples labeled unsafe.
func (d *Dataset) UnsafeFraction() float64 {
	if len(d.Samples) == 0 {
		return 0
	}
	n := 0
	for _, s := range d.Samples {
		n += s.Label
	}
	return float64(n) / float64(len(d.Samples))
}

// Labels returns the label vector.
func (d *Dataset) Labels() []int {
	out := make([]int, len(d.Samples))
	for i, s := range d.Samples {
		out[i] = s.Label
	}
	return out
}

// Knowledge returns the per-sample semantic-loss indicators.
func (d *Dataset) Knowledge() []float64 {
	out := make([]float64, len(d.Samples))
	for i, s := range d.Samples {
		out[i] = s.Knowledge
	}
	return out
}

// SensorDimsMLP returns the aggregated-feature columns derived from sensor
// data (the dims Gaussian noise perturbs; control-command dims are excluded,
// matching §III of the paper).
//
//apslint:allow reach BenchmarkAblationFGSMSensorsOnly in bench_test.go restricts FGSM to these columns
func SensorDimsMLP() []int {
	return []int{MLPFeatMeanBG, MLPFeatSlopeBG, MLPFeatMeanIOB, MLPFeatSlopeIOB, MLPFeatLastBG, MLPFeatLastIOB}
}

// windowFeatures computes the aggregated and raw features for the window of
// records ending at index end (inclusive).
func windowFeatures(records []sim.Record, end, window int, stepMin float64) (mlp, seq []float64, bg, dbg, diob float64) {
	seq = make([]float64, 0, window*SeqFeatureCount)
	var sumBG, sumIOB, sumRate float64
	first := end - window + 1
	for i := first; i <= end; i++ {
		r := records[i]
		seq = append(seq, r.CGM, r.IOB, r.DeltaBG, r.DeltaIOB, r.Rate, float64(r.Action))
		sumBG += r.CGM
		sumIOB += r.IOB
		sumRate += r.Rate
	}
	n := float64(window)
	slopeBG := seqSlope(seq, SeqFeatBG, stepMin)
	slopeIOB := seqSlope(seq, SeqFeatIOB, stepMin)
	last := records[end]
	mlp = []float64{
		sumBG / n,
		slopeBG,
		sumIOB / n,
		slopeIOB,
		sumRate / n,
		last.CGM,
		last.IOB,
		float64(last.Action),
	}
	return mlp, seq, sumBG / n, slopeBG, slopeIOB
}

// seqSlope fits a least-squares line to feature feat across the rows of a
// window's raw sequence (row stride SeqFeatureCount, rows stepMin apart)
// and returns its slope per minute — the f(·) aggregation the paper
// applies to derivatives.
func seqSlope(seq []float64, feat int, stepMin float64) float64 {
	rows := len(seq) / SeqFeatureCount
	n := float64(rows)
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := 0; i < rows; i++ {
		x := float64(i) * stepMin
		y := seq[i*SeqFeatureCount+feat]
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// SampleFromWindow builds one (unlabeled) monitor input sample from a full
// window of records — the online path used by the safety guard that reviews
// live commands. The records slice must hold at least two steps; the sample
// context covers exactly the given records.
func SampleFromWindow(records []sim.Record, stepMin float64) (Sample, error) {
	if len(records) < 2 {
		return Sample{}, fmt.Errorf("dataset: window of %d records, want ≥ 2", len(records))
	}
	if stepMin <= 0 {
		stepMin = 5
	}
	mlp, seq, bg, dbg, diob := windowFeatures(records, len(records)-1, len(records), stepMin)
	last := records[len(records)-1]
	return Sample{
		MLP:      mlp,
		Seq:      seq,
		BG:       bg,
		DeltaBG:  dbg,
		DeltaIOB: diob,
		Action:   last.Action,
		Step:     last.Step,
	}, nil
}

// traceWindower slices one episode trace into labeled samples — the
// streaming consumer of campaign generation. It is stateless after
// construction (the compiled STL rules are shared), so distinct traces can
// be windowed concurrently by the episode workers.
type traceWindower struct {
	window, horizon int
	rules           []stl.Rule
}

func newTraceWindower(window, horizon int, bgTarget float64) *traceWindower {
	return &traceWindower{window: window, horizon: horizon, rules: stl.APSRules(bgTarget)}
}

// window labels every sliding window of the trace, tagging samples with
// episode epID.
func (w *traceWindower) windowTrace(tr *sim.Trace, epID int) ([]Sample, error) {
	recs := tr.Records
	var samples []Sample
	if n := len(recs) - w.window + 1; n > 0 {
		samples = make([]Sample, 0, n)
	}
	for t := w.window - 1; t < len(recs); t++ {
		mlp, seq, bg, dbg, diob := windowFeatures(recs, t, w.window, tr.StepMin)
		label := 0
		for h := t; h <= t+w.horizon && h < len(recs); h++ {
			if recs[h].Hazard {
				label = 1
				break
			}
		}
		action := recs[t].Action
		unsafe, _, err := stl.EvalRules(w.rules, stl.ContextTrace(bg, dbg, diob, action), 0)
		if err != nil {
			return nil, fmt.Errorf("dataset: episode %d step %d: %w", epID, t, err)
		}
		know := 0.0
		if unsafe {
			know = 1
		}
		samples = append(samples, Sample{
			MLP:       mlp,
			Seq:       seq,
			Label:     label,
			Knowledge: know,
			BG:        bg,
			DeltaBG:   dbg,
			DeltaIOB:  diob,
			Action:    action,
			EpisodeID: epID,
			Step:      t,
			HazardNow: recs[t].Hazard,
		})
	}
	return samples, nil
}

// FromTraces slices labeled samples out of already-materialized episode
// traces (Generate fuses the same windowing into the episode workers
// instead, so a campaign never buffers all traces).
func FromTraces(traces []*sim.Trace, window, horizon int, bgTarget float64) (*Dataset, error) {
	if window < 2 {
		return nil, fmt.Errorf("dataset: window %d, want ≥ 2", window)
	}
	if horizon < 1 {
		return nil, fmt.Errorf("dataset: horizon %d, want ≥ 1", horizon)
	}
	if len(traces) == 0 {
		return nil, fmt.Errorf("dataset: no traces")
	}
	w := newTraceWindower(window, horizon, bgTarget)
	ds := &Dataset{
		Simulator: traces[0].Simulator,
		Window:    window,
		Horizon:   horizon,
		BGTarget:  bgTarget,
	}
	anyScenario := false
	for epID, tr := range traces {
		samples, err := w.windowTrace(tr, epID)
		if err != nil {
			return nil, err
		}
		from := len(ds.Samples)
		ds.Samples = append(ds.Samples, samples...)
		ds.EpisodeIndex = append(ds.EpisodeIndex, [2]int{from, len(ds.Samples)})
		ds.Scenarios = append(ds.Scenarios, tr.Scenario)
		ds.Faults = append(ds.Faults, FaultName(tr.Fault))
		if tr.Scenario != "" {
			anyScenario = true
		}
	}
	if !anyScenario {
		ds.Scenarios = nil // hand-built traces: keep the legacy encoding
	}
	return ds, nil
}

// FaultName canonicalizes a trace's fault into per-episode provenance:
// "none" for fault-free episodes, the fault type's name otherwise.
func FaultName(f *sim.Fault) string {
	if f == nil {
		return "none"
	}
	return f.Type.String()
}

// Split partitions the dataset by episode into train and test sets (the
// fraction is of episodes, not samples, to avoid window leakage across the
// boundary). Episodes are dealt out with a fixed-seed shuffle so both sides
// see every profile and fault mix. Normalizers are fit on the training set
// and shared with test.
func (d *Dataset) Split(trainFrac float64) (train, test *Dataset, err error) {
	order, cut, err := splitOrder(len(d.EpisodeIndex), trainFrac)
	if err != nil {
		return nil, nil, err
	}
	train = d.subset(order[:cut])
	test = d.subset(order[cut:])
	train.MLPNorm, err = fitNormalizer(train, func(s Sample) []float64 { return s.MLP })
	if err != nil {
		return nil, nil, err
	}
	train.SeqNorm, err = fitSeqNormalizer(train)
	if err != nil {
		return nil, nil, err
	}
	test.MLPNorm, test.SeqNorm = train.MLPNorm, train.SeqNorm
	return train, test, nil
}

// splitOrder returns Split's deterministic episode permutation and cut
// position: episodes order[:cut] train, order[cut:] test. Exposed through
// TestEpisodes so shard evaluators can map split-local episode positions
// back to global campaign indices.
func splitOrder(nEp int, trainFrac float64) (order []int, cut int, err error) {
	if trainFrac <= 0 || trainFrac >= 1 {
		return nil, 0, fmt.Errorf("dataset: train fraction %v out of (0,1)", trainFrac)
	}
	cut = int(math.Round(float64(nEp) * trainFrac))
	if cut == 0 || cut == nEp {
		return nil, 0, fmt.Errorf("dataset: split %v leaves an empty side (%d episodes)", trainFrac, nEp)
	}
	order = make([]int, nEp)
	for i := range order {
		order[i] = i
	}
	rand.New(rand.NewSource(929)).Shuffle(nEp, func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order, cut, nil
}

// TestEpisodes returns the original (receiver-local, i.e. global campaign)
// episode indices of the test split at trainFrac, in split order: episode i
// of Split's test dataset is episode TestEpisodes(trainFrac)[i] of the
// receiver. Shard evaluators use it to restrict an already-split test set
// to one shard's global episode range.
func (d *Dataset) TestEpisodes(trainFrac float64) ([]int, error) {
	order, cut, err := splitOrder(len(d.EpisodeIndex), trainFrac)
	if err != nil {
		return nil, err
	}
	return order[cut:], nil
}

// subset assembles a new dataset from the given original episode indices,
// re-indexing episodes while keeping any per-episode provenance (Scenarios,
// Faults) aligned with the new EpisodeIndex. Datasets without provenance
// (legacy encodings with nil slices) stay provenance-free. Normalizers are
// not copied — Split fits/shares them and Filter inherits them explicitly.
func (d *Dataset) subset(eps []int) *Dataset {
	out := &Dataset{
		Simulator: d.Simulator,
		Window:    d.Window,
		Horizon:   d.Horizon,
		BGTarget:  d.BGTarget,
	}
	hasScenarios := len(d.Scenarios) == len(d.EpisodeIndex)
	hasFaults := len(d.Faults) == len(d.EpisodeIndex)
	for _, ep := range eps {
		r := d.EpisodeIndex[ep]
		from := len(out.Samples)
		out.Samples = append(out.Samples, d.Samples[r[0]:r[1]]...)
		out.EpisodeIndex = append(out.EpisodeIndex, [2]int{from, len(out.Samples)})
		if hasScenarios {
			out.Scenarios = append(out.Scenarios, d.Scenarios[ep])
		}
		if hasFaults {
			out.Faults = append(out.Faults, d.Faults[ep])
		}
	}
	return out
}

// Filter returns the sub-dataset of episodes for which keep reports true
// (e.g. all episodes of one scenario), sharing the receiver's normalizers so
// monitor inputs are assembled identically. Provenance stays aligned with
// the re-built EpisodeIndex; an empty selection yields an empty dataset.
func (d *Dataset) Filter(keep func(ep int) bool) *Dataset {
	var eps []int
	for ep := range d.EpisodeIndex {
		if keep(ep) {
			eps = append(eps, ep)
		}
	}
	out := d.subset(eps)
	out.MLPNorm, out.SeqNorm = d.MLPNorm, d.SeqNorm
	return out
}
