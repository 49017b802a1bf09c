package monitor

import "fmt"

// CUSUM is a one-sided cumulative-sum drift detector (Page's test) over the
// per-sample unsafe probability: Update accumulates S ← max(0, S + p − K)
// and alarms while S > H. Where the m-of-n debounce reacts to consecutive
// hard verdicts, CUSUM integrates soft evidence, so it flags slow drifts —
// e.g. a bias fault that keeps each individual sample just under the
// decision threshold — long before any single verdict flips.
//
// K is the per-sample drift allowance (the expected unsafe probability under
// nominal behaviour plus slack) and H the accumulated-evidence alarm
// threshold; larger H trades detection latency for fewer false alarms.
//
// A CUSUM is NOT safe for concurrent use. Like MOfN, give each session its
// own detector by Clone()ing an idle, validated prototype.
type CUSUM struct {
	k, h float64
	s    float64
}

// NewCUSUM builds a drift detector with allowance k (0 ≤ k < 1, in
// probability units) and alarm threshold h > 0.
func NewCUSUM(k, h float64) (*CUSUM, error) {
	if k < 0 || k >= 1 {
		return nil, fmt.Errorf("monitor: cusum allowance k=%g, want 0 ≤ k < 1", k)
	}
	if h <= 0 {
		return nil, fmt.Errorf("monitor: cusum threshold h=%g, want > 0", h)
	}
	return &CUSUM{k: k, h: h}, nil
}

// Update folds one unsafe probability into the statistic and reports
// whether the accumulated evidence exceeds the alarm threshold.
func (c *CUSUM) Update(pUnsafe float64) bool {
	c.s += pUnsafe - c.k
	if c.s < 0 {
		c.s = 0
	}
	return c.s > c.h
}

// Clone returns an independent detector with the same configuration and a
// private copy of the accumulated state.
func (c *CUSUM) Clone() *CUSUM {
	cp := *c
	return &cp
}
