package repro_test

import (
	"math"
	"testing"

	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/monitor"
)

// TestF32VerdictAgreement is the acceptance gate of the float32 inference
// engine: on the bench campaign, for every ML monitor on both simulators,
// the frozen f32 fast path must agree with the canonical f64 path on all but
// a sliver of windows (alarm flips < 0.5%) and must not move the overall
// tolerance-window F1 by more than 0.005. On failure it prints divergence
// diagnostics — which windows flipped and how close both paths were to the
// decision boundary — so a quantization regression can be localized.
func TestF32VerdictAgreement(t *testing.T) {
	a, err := experiments.Shared(experiments.Bench())
	if err != nil {
		t.Fatalf("build assets: %v", err)
	}
	const (
		maxFlipFrac = 0.005
		maxF1Delta  = 0.005
	)
	for _, sa := range a.Sims {
		for _, name := range experiments.MLMonitorNames {
			m, err := sa.MLMonitor(name)
			if err != nil {
				t.Fatalf("%v %s: %v", sa.Sim, name, err)
			}
			x, err := m.InputMatrix(sa.Test.Samples)
			if err != nil {
				t.Fatalf("%v %s: %v", sa.Sim, name, err)
			}
			n := x.Rows()
			c64, p64 := make([]int, n), make([]float64, n)
			if err := m.ClassifyInto(monitor.F64, x, c64, p64); err != nil {
				t.Fatalf("%v %s f64: %v", sa.Sim, name, err)
			}
			c32, p32 := make([]int, n), make([]float64, n)
			if err := m.ClassifyInto(monitor.F32, x, c32, p32); err != nil {
				t.Fatalf("%v %s f32: %v", sa.Sim, name, err)
			}
			flips := 0
			for i := range c64 {
				if c64[i] != c32[i] {
					flips++
					if flips <= 8 {
						s := sa.Test.Samples[i]
						t.Logf("%v %s: window %d (episode %d step %d, label %d) flipped: "+
							"f64 class=%d conf=%.6f, f32 class=%d conf=%.6f",
							sa.Sim, name, i, s.EpisodeID, s.Step, s.Label,
							c64[i], p64[i], c32[i], p32[i])
					}
				}
			}
			if frac := float64(flips) / float64(n); frac > maxFlipFrac {
				t.Errorf("%v %s: f32 flips %d/%d alarms (%.3f%%), want < %.1f%% — see flip diagnostics above",
					sa.Sim, name, flips, n, 100*frac, 100*maxFlipFrac)
			}

			r64, err := eval.Evaluate(m, sa.Test, eval.Options{Tolerance: a.Config.ToleranceDelta, Precision: monitor.F64})
			if err != nil {
				t.Fatalf("%v %s f64 report: %v", sa.Sim, name, err)
			}
			r32, err := eval.Evaluate(m, sa.Test, eval.Options{Tolerance: a.Config.ToleranceDelta, Precision: monitor.F32})
			if err != nil {
				t.Fatalf("%v %s f32 report: %v", sa.Sim, name, err)
			}
			if d := math.Abs(r64.Overall.F1 - r32.Overall.F1); d > maxF1Delta {
				t.Errorf("%v %s: overall F1 moved by %.4f (f64 %.4f → f32 %.4f), want <= %.3f",
					sa.Sim, name, d, r64.Overall.F1, r32.Overall.F1, maxF1Delta)
				for _, s64 := range r64.Scenarios {
					if s32, ok := r32.Scenario(s64.Key); ok && s64.F1 != s32.F1 {
						t.Logf("%v %s: scenario %q F1 %.4f → %.4f", sa.Sim, name, s64.Key, s64.F1, s32.F1)
					}
				}
			}
		}
	}
}
