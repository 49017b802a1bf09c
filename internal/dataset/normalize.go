package dataset

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// Normalizer standardizes feature columns to zero mean and unit variance
// using statistics fit on a training set. With unit-variance features, the
// paper's noise levels (σ expressed as a fraction of the data's standard
// deviation) and FGSM ε budgets apply directly in normalized space.
type Normalizer struct {
	Mean []float64
	Std  []float64
}

// NewNormalizer fits column statistics on x.
func NewNormalizer(x *mat.Matrix) *Normalizer {
	cols := x.Cols()
	n := &Normalizer{Mean: make([]float64, cols), Std: make([]float64, cols)}
	rows := float64(x.Rows())
	if rows == 0 {
		for j := range n.Std {
			n.Std[j] = 1
		}
		return n
	}
	for i := 0; i < x.Rows(); i++ {
		for j, v := range x.Row(i) {
			n.Mean[j] += v
		}
	}
	for j := range n.Mean {
		n.Mean[j] /= rows
	}
	for i := 0; i < x.Rows(); i++ {
		for j, v := range x.Row(i) {
			d := v - n.Mean[j]
			n.Std[j] += d * d
		}
	}
	for j := range n.Std {
		n.Std[j] = math.Sqrt(n.Std[j] / rows)
		if n.Std[j] < 1e-9 {
			n.Std[j] = 1 // constant column: leave centered, unscaled
		}
	}
	return n
}

// Invert undoes the standardization in place (for plotting raw-unit values,
// e.g. Fig 4 and Fig 7).
func (n *Normalizer) Invert(x *mat.Matrix) {
	for i := 0; i < x.Rows(); i++ {
		row := x.Row(i)
		for j := range row {
			row[j] = row[j]*n.Std[j] + n.Mean[j]
		}
	}
}

// ApplyRowInto standardizes a single feature vector into a caller-owned
// destination, (v−mean)/std per element. Every monitor input row, batched
// or served, is standardized through it.
func (n *Normalizer) ApplyRowInto(dst, row []float64) error {
	if len(row) != len(n.Mean) || len(row) != len(n.Std) {
		return fmt.Errorf("dataset: normalize row of %d values with %d means and %d deviations", len(row), len(n.Mean), len(n.Std))
	}
	if len(dst) != len(row) {
		return fmt.Errorf("dataset: normalize %d values into %d slots", len(row), len(dst))
	}
	for j, v := range row {
		dst[j] = (v - n.Mean[j]) / n.Std[j]
	}
	return nil
}

func fitNormalizer(d *Dataset, get func(Sample) []float64) (*Normalizer, error) {
	if len(d.Samples) == 0 {
		return nil, fmt.Errorf("dataset: cannot fit normalizer on empty set")
	}
	rows := make([][]float64, len(d.Samples))
	for i, s := range d.Samples {
		rows[i] = get(s)
	}
	x, err := mat.FromRows(rows)
	if err != nil {
		return nil, err
	}
	return NewNormalizer(x), nil
}

// fitSeqNormalizer fits per-feature statistics shared across time steps, so
// each physical signal (BG, IOB, …) is scaled identically at every step of
// the window.
func fitSeqNormalizer(d *Dataset) (*Normalizer, error) {
	if len(d.Samples) == 0 {
		return nil, fmt.Errorf("dataset: cannot fit normalizer on empty set")
	}
	width := len(d.Samples[0].Seq)
	if width%SeqFeatureCount != 0 {
		return nil, fmt.Errorf("dataset: seq width %d not a multiple of %d", width, SeqFeatureCount)
	}
	steps := width / SeqFeatureCount
	// Pool samples across steps per feature.
	mean := make([]float64, SeqFeatureCount)
	std := make([]float64, SeqFeatureCount)
	count := float64(len(d.Samples) * steps)
	for _, s := range d.Samples {
		for st := 0; st < steps; st++ {
			for f := 0; f < SeqFeatureCount; f++ {
				mean[f] += s.Seq[st*SeqFeatureCount+f]
			}
		}
	}
	for f := range mean {
		mean[f] /= count
	}
	for _, s := range d.Samples {
		for st := 0; st < steps; st++ {
			for f := 0; f < SeqFeatureCount; f++ {
				dv := s.Seq[st*SeqFeatureCount+f] - mean[f]
				std[f] += dv * dv
			}
		}
	}
	n := &Normalizer{Mean: make([]float64, width), Std: make([]float64, width)}
	for f := range std {
		std[f] = math.Sqrt(std[f] / count)
		if std[f] < 1e-9 {
			std[f] = 1
		}
	}
	for st := 0; st < steps; st++ {
		for f := 0; f < SeqFeatureCount; f++ {
			n.Mean[st*SeqFeatureCount+f] = mean[f]
			n.Std[st*SeqFeatureCount+f] = std[f]
		}
	}
	return n, nil
}
