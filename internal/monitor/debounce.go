package monitor

import "fmt"

// MOfN is the rolling m-of-n alarm filter, the standard medical-alarm
// practice: Update reports true when at least M of the last N raw verdicts
// were unsafe, suppressing single-sample flickers (which both CGM noise and
// transient perturbations produce). Serving sessions run one per online
// stream, so every concurrent consumer owns a private instance instead of
// sharing one.
//
// An MOfN is NOT safe for concurrent use. Give each session its own
// filter by Clone()ing an idle, validated prototype.
type MOfN struct {
	m, n    int
	history []bool
}

// NewMOfN builds an m-of-n filter (1 ≤ m ≤ n).
func NewMOfN(m, n int) (*MOfN, error) {
	if n < 1 || m < 1 || m > n {
		return nil, fmt.Errorf("monitor: debounce m=%d n=%d, want 1 ≤ m ≤ n", m, n)
	}
	return &MOfN{m: m, n: n}, nil
}

// Update folds one raw verdict into the rolling window and returns the
// filtered decision.
func (f *MOfN) Update(unsafe bool) bool {
	f.history = append(f.history, unsafe)
	if len(f.history) > f.n {
		f.history = f.history[1:]
	}
	count := 0
	for _, h := range f.history {
		if h {
			count++
		}
	}
	return count >= f.m
}

// Clone returns an independent filter with the same configuration and a
// private copy of the rolling state. Cloning an idle (freshly constructed)
// prototype is the safe way to hand each session its own filter.
func (f *MOfN) Clone() *MOfN {
	c := &MOfN{m: f.m, n: f.n}
	if len(f.history) > 0 {
		c.history = append(c.history, f.history...)
	}
	return c
}
