package eval

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/artifact"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/monitor"
)

// FormatVersion identifies the evaluation-report artifact encoding and the
// scoring semantics behind it. Bump it whenever the Report schema, the
// tolerance-window metric, or the latency definition changes incompatibly —
// cached reports from older versions then become unreachable and are
// re-evaluated.
//
// v2: reports embed their FormatVersion (LoadReport validates it), and
// every slice carries its raw sorted detection-latency vector
// (Slice.Latencies) so per-shard reports Merge into byte-identical
// aggregate statistics.
const FormatVersion = 2

// Slice is one sliced view of an evaluation: the tolerance-window confusion
// matrix and detection-latency statistics of the episodes sharing a key
// (a scenario name, a fault type, or "overall").
type Slice struct {
	Key       string
	Episodes  int
	Samples   int
	Confusion metrics.Confusion
	// F1 is Confusion.F1(), denormalized so serialized reports are
	// self-describing.
	F1 float64
	// Latencies is the slice's raw detection-latency multiset in sorted
	// order — the canonical form Merge re-aggregates Latency from, so
	// merged statistics are byte-identical to a single-pass evaluation.
	Latencies []int `json:",omitempty"`
	Latency   metrics.LatencyStats
}

// Report is the full evaluation of one monitor on one dataset: the overall
// confusion matrix plus per-scenario and per-fault-type slices, each with
// detection-latency aggregation. Reports reduce in episode order and list
// slices sorted by key, so equal inputs serialize to equal bytes.
// Reports form a monoid under Merge, with the zero Report as identity.
type Report struct {
	FormatVersion int
	Simulator     string
	Monitor       string
	Tolerance     int
	Episodes      int
	Samples       int
	Overall       Slice
	Scenarios     []Slice
	Faults        []Slice
}

// Scenario returns the named scenario slice.
//
//apslint:allow reach test seam: the eval, experiments and root precision tests read scenario slices through it
func (r *Report) Scenario(key string) (Slice, bool) { return findSlice(r.Scenarios, key) }

func findSlice(slices []Slice, key string) (Slice, bool) {
	for _, s := range slices {
		if s.Key == key {
			return s, true
		}
	}
	return Slice{}, false
}

// Save writes the report as JSON. Go's encoder renders float64 values in
// shortest round-trip form, so Save→Load is bit-exact.
func (r *Report) Save(w io.Writer) error {
	if err := json.NewEncoder(w).Encode(r); err != nil {
		return fmt.Errorf("eval: save report: %w", err)
	}
	return nil
}

// LoadReport reads a report written by Save, rejecting reports whose
// embedded FormatVersion does not match this binary's (older reports lack
// the field entirely and decode as version 0).
func LoadReport(r io.Reader) (*Report, error) {
	rep := &Report{}
	if err := json.NewDecoder(r).Decode(rep); err != nil {
		return nil, fmt.Errorf("eval: load report: %w", err)
	}
	if rep.FormatVersion != FormatVersion {
		return nil, fmt.Errorf("eval: load report: format version %d, this binary reads version %d — re-evaluate to regenerate the report",
			rep.FormatVersion, FormatVersion)
	}
	return rep, nil
}

// ReportConfig addresses an evaluation report by everything that determines
// its content: the campaign whose test split is evaluated, the split
// fraction (split shuffle and normalizer fit are deterministic given both),
// the monitor (name + full training recipe; the zero TrainConfig stands for
// the untrained rule-based monitor, whose rules derive from the campaign's
// BGTarget), and the tolerance δ. Worker counts never enter the fingerprint
// — reports are byte-identical at every parallelism setting.
type ReportConfig struct {
	Campaign  dataset.CampaignConfig
	TrainFrac float64
	Monitor   string
	Train     monitor.TrainConfig
	Tolerance int
	// Precision is the inference arithmetic the report was scored with (""
	// and "f64" are the same canonical path). f32 reports differ from f64
	// ones by float32 rounding, so non-default precision enters the
	// fingerprint.
	Precision monitor.Precision
	// ShardCount/ShardIndex restrict the report to one shard of the
	// campaign's episode range (0/0 = the whole test split). Sharded
	// reports cache under the shard's sub-fingerprint, so incremental
	// re-evaluation touches only shards whose configuration changed.
	ShardCount int
	ShardIndex int
}

// Fingerprint hashes the canonicalized report configuration, mixing in the
// campaign and monitor format versions so upstream encoding bumps invalidate
// downstream reports.
func (c ReportConfig) Fingerprint() uint64 {
	parts := []any{"evalreport", c.Campaign.Fingerprint(),
		"split", c.TrainFrac, dataset.FormatVersion,
		c.Monitor, c.Train.Fingerprint(), monitor.FormatVersion,
		"delta", c.Tolerance}
	// The canonical f64 path is deliberately not mixed in, so reports cached
	// before precision existed stay addressable.
	if p, err := monitor.ParsePrecision(string(c.Precision)); err != nil || p != monitor.F64 {
		parts = append(parts, "precision", c.Precision)
	}
	// Unsharded reports (ShardCount 0) likewise keep their pre-shard keys;
	// shard reports key under the shard sub-fingerprint (parent campaign fp
	// + split position + episode range).
	if c.ShardCount > 0 {
		if sc, err := c.Campaign.ShardAt(c.ShardCount, c.ShardIndex); err == nil {
			parts = append(parts, "shard", sc.Fingerprint())
		} else {
			parts = append(parts, "shard", c.ShardCount, c.ShardIndex)
		}
	}
	return artifact.Fingerprint(parts...)
}

// ArtifactKey returns the content-addressed cache key of the report this
// config produces.
func (c ReportConfig) ArtifactKey() artifact.Key {
	return artifact.Key{Kind: "evalreport", Version: FormatVersion, Fingerprint: c.Fingerprint()}
}

// CachedReport returns the evaluation report for cfg, loading it from the
// artifact store when a current entry exists and computing (then persisting)
// it otherwise. On a hit, compute is never
// invoked — which is what lets a warm run skip monitor resolution and
// inference entirely.
func CachedReport(store artifact.Store, cfg ReportConfig, compute func() (*Report, error)) (rep *Report, hit bool, err error) {
	hit, err = store.GetOrCreateFile(cfg.ArtifactKey(),
		artifact.ReaderLoad(func(r io.Reader) error {
			var lerr error
			rep, lerr = LoadReport(r)
			return lerr
		}),
		func() error {
			var cerr error
			rep, cerr = compute()
			return cerr
		},
		func(w io.Writer) error { return rep.Save(w) },
	)
	return rep, hit, err
}

// Set bundles the reports of one evaluation surface (e.g. every monitor on
// both simulators) in a fixed order for rendering and JSON export.
type Set struct {
	Tolerance int
	Reports   []*Report
}

// Save writes the set as indented JSON (the CLI -out payload).
func (s *Set) Save(w io.Writer) error {
	enc, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("eval: save report set: %w", err)
	}
	enc = append(enc, '\n')
	if _, err := w.Write(enc); err != nil {
		return fmt.Errorf("eval: save report set: %w", err)
	}
	return nil
}

// LoadSet reads a report set written by Set.Save, validating every
// report's embedded FormatVersion (the merge path refuses to combine
// reports scored under different semantics).
func LoadSet(r io.Reader) (*Set, error) {
	s := &Set{}
	if err := json.NewDecoder(r).Decode(s); err != nil {
		return nil, fmt.Errorf("eval: load report set: %w", err)
	}
	for i, rep := range s.Reports {
		if rep == nil {
			return nil, fmt.Errorf("eval: load report set: report %d is null", i)
		}
		if rep.FormatVersion != FormatVersion {
			return nil, fmt.Errorf("eval: load report set: report %d (%s/%s) has format version %d, this binary reads version %d",
				i, rep.Simulator, rep.Monitor, rep.FormatVersion, FormatVersion)
		}
	}
	return s, nil
}
