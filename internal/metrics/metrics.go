// Package metrics implements the paper's evaluation metrics: the confusion
// matrix for sequential data with a tolerance window (Table II), the derived
// precision/recall/accuracy/F1 scores, and the prediction robustness error
// of Eq (5).
package metrics

import "fmt"

// Confusion is a binary confusion matrix.
type Confusion struct {
	TP, FP, TN, FN int
}

// Add accumulates another confusion matrix (e.g. across episodes).
func (c *Confusion) Add(o Confusion) {
	c.TP += o.TP
	c.FP += o.FP
	c.TN += o.TN
	c.FN += o.FN
}

// Total returns the number of counted samples.
func (c Confusion) Total() int { return c.TP + c.FP + c.TN + c.FN }

// Precision returns TP/(TP+FP), 0 when undefined.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), 0 when undefined.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// Accuracy returns (TP+TN)/total, 0 when empty.
func (c Confusion) Accuracy() float64 {
	if c.Total() == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(c.Total())
}

// F1 returns the harmonic mean of precision and recall, 0 when undefined.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// String implements fmt.Stringer.
func (c Confusion) String() string {
	return fmt.Sprintf("Confusion{TP:%d FP:%d TN:%d FN:%d}", c.TP, c.FP, c.TN, c.FN)
}

// ToleranceWindow computes the Table II confusion matrix over one episode's
// aligned prediction and ground-truth sequences. delta is the tolerance
// window δ in steps.
//
// A sample t is ground-truth positive when a hazard occurs within
// [t, t+δ]. For such samples, the alarm window is the δ-step window ending
// at the first hazard onset t_h (the "window ending with a positive ground
// truth that includes t" of Table II): the sample counts as a true positive
// if any alarm fired within [t_h−δ, t_h], and as a false negative
// otherwise. Samples with no upcoming hazard count as FP/TN from the alarm
// at t alone.
func ToleranceWindow(pred, truth []int, delta int) (Confusion, error) {
	var c Confusion
	if len(pred) != len(truth) {
		return c, fmt.Errorf("metrics: %d predictions vs %d truths", len(pred), len(truth))
	}
	if delta < 0 {
		return c, fmt.Errorf("metrics: negative tolerance %d", delta)
	}
	n := len(pred)
	for t := 0; t < n; t++ {
		onset := -1
		for h := t; h <= t+delta && h < n; h++ {
			if truth[h] > 0 {
				onset = h
				break
			}
		}
		if onset >= 0 {
			alarmed := false
			for b := onset - delta; b <= onset; b++ {
				if b >= 0 && pred[b] > 0 {
					alarmed = true
					break
				}
			}
			if alarmed {
				c.TP++
			} else {
				c.FN++
			}
			continue
		}
		if pred[t] > 0 {
			c.FP++
		} else {
			c.TN++
		}
	}
	return c, nil
}

// SampleLevel computes the plain per-sample confusion matrix (tolerance 0
// against the label sequence itself).
//
//apslint:allow reach reference confusion matrix that TestToleranceWindowZeroDeltaIsSampleLevel checks the tolerance window against
func SampleLevel(pred, labels []int) (Confusion, error) {
	var c Confusion
	if len(pred) != len(labels) {
		return c, fmt.Errorf("metrics: %d predictions vs %d labels", len(pred), len(labels))
	}
	for i := range pred {
		switch {
		case pred[i] > 0 && labels[i] > 0:
			c.TP++
		case pred[i] > 0:
			c.FP++
		case labels[i] > 0:
			c.FN++
		default:
			c.TN++
		}
	}
	return c, nil
}

// RobustnessError implements Eq (5): the fraction of samples whose predicted
// class changes after the input perturbation.
func RobustnessError(orig, perturbed []int) (float64, error) {
	if len(orig) != len(perturbed) {
		return 0, fmt.Errorf("metrics: %d original vs %d perturbed predictions", len(orig), len(perturbed))
	}
	if len(orig) == 0 {
		return 0, nil
	}
	flipped := 0
	for i := range orig {
		if orig[i] != perturbed[i] {
			flipped++
		}
	}
	return float64(flipped) / float64(len(orig)), nil
}
