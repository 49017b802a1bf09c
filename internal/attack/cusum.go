package attack

import "fmt"

// CUSUM is a two-sided cumulative-sum change detector (Page's test), the
// classical technique the paper cites (§III) as unable to catch the small
// perturbations studied here: "accidental or malicious perturbations … that
// cannot be detected by the current methods for sensor/input error detection
// and attack detection, such as invariant detection or change detection
// techniques (e.g., Cumulative Sum Control Chart (CUSUM))".
//
// The detector tracks a reference signal's deviations from a target mean:
// s⁺ ← max(0, s⁺ + (x−µ)/σ − k), s⁻ ← max(0, s⁻ − (x−µ)/σ − k), and raises
// an alarm when either statistic exceeds the threshold h.
type CUSUM struct {
	// Mean and Std describe the in-control distribution of the monitored
	// signal (set from training data).
	Mean, Std float64
	// K is the slack (in σ units) per sample; standard choice 0.5 detects
	// one-σ mean shifts fastest.
	K float64
	// H is the decision threshold (in σ units); standard choice 4–5.
	H float64

	sPos, sNeg float64
}

// NewCUSUM returns a detector for a signal with the given in-control
// statistics, using the standard k=0.5, h=5 design.
func NewCUSUM(mean, std float64) *CUSUM {
	return &CUSUM{Mean: mean, Std: std, K: 0.5, H: 5}
}

// Reset clears the accumulated statistics.
func (c *CUSUM) Reset() { c.sPos, c.sNeg = 0, 0 }

// Observe consumes one sample and reports whether the detector alarms.
func (c *CUSUM) Observe(x float64) bool {
	std := c.Std
	if std <= 0 {
		std = 1
	}
	z := (x - c.Mean) / std
	c.sPos += z - c.K
	if c.sPos < 0 {
		c.sPos = 0
	}
	c.sNeg += -z - c.K
	if c.sNeg < 0 {
		c.sNeg = 0
	}
	return c.sPos > c.H || c.sNeg > c.H
}

// DetectSeries runs the detector over a series and returns the index of the
// first alarm, or -1 if it never fires. The detector is Reset first.
func (c *CUSUM) DetectSeries(xs []float64) int {
	c.Reset()
	for i, x := range xs {
		if c.Observe(x) {
			return i
		}
	}
	return -1
}

// EvasionRate measures the fraction of perturbed series that never alarm a
// CUSUM watching the *perturbation residual* (perturbed − original): the
// strongest position a change detector can be in, since it sees the injected
// signal directly. A high evasion rate confirms the paper's premise that
// these perturbations slip past classical change detection.
func EvasionRate(original, perturbed [][]float64, std float64) (float64, error) {
	if len(original) != len(perturbed) {
		return 0, fmt.Errorf("attack: %d original vs %d perturbed series", len(original), len(perturbed))
	}
	if len(original) == 0 {
		return 0, nil
	}
	evaded := 0
	for i := range original {
		if len(original[i]) != len(perturbed[i]) {
			return 0, fmt.Errorf("attack: series %d length mismatch", i)
		}
		residual := make([]float64, len(original[i]))
		for j := range residual {
			residual[j] = perturbed[i][j] - original[i][j]
		}
		det := NewCUSUM(0, std)
		if det.DetectSeries(residual) < 0 {
			evaded++
		}
	}
	return float64(evaded) / float64(len(original)), nil
}
