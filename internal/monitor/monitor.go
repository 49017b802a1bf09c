// Package monitor implements the safety monitors the paper evaluates: a
// rule-based monitor synthesized from the Table I STL specifications, and
// the four ML monitors (MLP, LSTM, and their semantic-loss "Custom"
// variants) trained on simulation campaigns. A trained ML monitor is
// stored as an artifact section container (MLMonitor.Save, Load).
package monitor

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/stl"
)

// Verdict is a monitor's judgment of one sample.
type Verdict struct {
	// Unsafe is true when the monitor predicts a hazard within the horizon.
	Unsafe bool
	// Confidence is the probability assigned to the predicted class
	// (always 1 for the rule-based monitor).
	Confidence float64
}

// Monitor classifies monitor-input samples.
type Monitor interface {
	// Name identifies the monitor ("rule_based", "mlp", "lstm_custom", …).
	Name() string
	// Classify judges a batch of samples and returns one verdict per sample.
	Classify(samples []dataset.Sample) ([]Verdict, error)
}

// RuleBased is the pure domain-knowledge monitor: it alerts iff any Table I
// unsafe-control-action specification fires on the aggregated window context.
type RuleBased struct {
	rules []stl.Rule
}

var _ Monitor = (*RuleBased)(nil)

// NewRuleBased builds the monitor for a glucose target bgt.
func NewRuleBased(bgt float64) *RuleBased {
	return &RuleBased{rules: stl.APSRules(bgt)}
}

// Name implements Monitor.
func (r *RuleBased) Name() string { return "rule_based" }

// Classify implements Monitor.
func (r *RuleBased) Classify(samples []dataset.Sample) ([]Verdict, error) {
	out := make([]Verdict, len(samples))
	for i, s := range samples {
		unsafe, _, err := stl.EvalRules(r.rules, stl.ContextTrace(s.BG, s.DeltaBG, s.DeltaIOB, s.Action), 0)
		if err != nil {
			return nil, fmt.Errorf("monitor: rule eval sample %d: %w", i, err)
		}
		out[i] = Verdict{Unsafe: unsafe, Confidence: 1}
	}
	return out, nil
}
