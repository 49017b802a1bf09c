package dataset

import (
	"fmt"
	"math/rand"
)

// GaussianNoisySamples returns a deep copy of the dataset's samples with
// zero-mean Gaussian noise added to the *raw sensor stream* of each window
// — BG and IOB per step, at σ times each signal's standard deviation — and
// all derived features recomputed from the noisy series:
//
//   - per-step derivatives ∆BG/∆IOB are rebuilt from the noisy samples
//     (the first step keeps its original derivative plus its own noise
//     contribution, since the pre-window sample is unavailable);
//   - the MLP's aggregated features (means, regression slopes, last values)
//     are recomputed over the noisy window.
//
// Control-command signals (rate, action) are untouched, matching §III of
// the paper ("Gaussian noise is only applied to sensor data"). The Dataset
// must carry a fitted SeqNorm (its per-feature stds define the noise
// scale).
func GaussianNoisySamples(rng *rand.Rand, d *Dataset, sigma float64) ([]Sample, error) {
	if sigma < 0 {
		return nil, fmt.Errorf("dataset: negative sigma %v", sigma)
	}
	if d.SeqNorm == nil {
		return nil, fmt.Errorf("dataset: GaussianNoisySamples needs a fitted SeqNorm")
	}
	bgStd := d.SeqNorm.Std[SeqFeatBG]
	iobStd := d.SeqNorm.Std[SeqFeatIOB]
	stepMin := d.StepMin()
	w := d.Window

	out := make([]Sample, len(d.Samples))
	for i, s := range d.Samples {
		ns := s
		ns.Seq = append([]float64(nil), s.Seq...)
		ns.MLP = append([]float64(nil), s.MLP...)

		bgNoise := make([]float64, w)
		iobNoise := make([]float64, w)
		for t := 0; t < w; t++ {
			bgNoise[t] = rng.NormFloat64() * sigma * bgStd
			iobNoise[t] = rng.NormFloat64() * sigma * iobStd
		}
		// Perturb the per-step sensor stream.
		for t := 0; t < w; t++ {
			base := t * SeqFeatureCount
			ns.Seq[base+SeqFeatBG] += bgNoise[t]
			ns.Seq[base+SeqFeatIOB] += iobNoise[t]
			// Derivatives follow the noisy series.
			if t > 0 {
				ns.Seq[base+SeqFeatDeltaBG] += (bgNoise[t] - bgNoise[t-1]) / stepMin
				ns.Seq[base+SeqFeatDeltaIOB] += (iobNoise[t] - iobNoise[t-1]) / stepMin
			} else {
				ns.Seq[base+SeqFeatDeltaBG] += bgNoise[t] / stepMin
				ns.Seq[base+SeqFeatDeltaIOB] += iobNoise[t] / stepMin
			}
		}
		// Recompute the aggregated MLP features from the noisy window.
		var sumBG, sumIOB float64
		for t := 0; t < w; t++ {
			base := t * SeqFeatureCount
			sumBG += ns.Seq[base+SeqFeatBG]
			sumIOB += ns.Seq[base+SeqFeatIOB]
		}
		last := (w - 1) * SeqFeatureCount
		ns.MLP[MLPFeatMeanBG] = sumBG / float64(w)
		ns.MLP[MLPFeatMeanIOB] = sumIOB / float64(w)
		ns.MLP[MLPFeatSlopeBG] = seqSlope(ns.Seq, SeqFeatBG, stepMin)
		ns.MLP[MLPFeatSlopeIOB] = seqSlope(ns.Seq, SeqFeatIOB, stepMin)
		ns.MLP[MLPFeatLastBG] = ns.Seq[last+SeqFeatBG]
		ns.MLP[MLPFeatLastIOB] = ns.Seq[last+SeqFeatIOB]
		// Rule-evaluation context follows the noisy aggregates.
		ns.BG = ns.MLP[MLPFeatMeanBG]
		ns.DeltaBG = ns.MLP[MLPFeatSlopeBG]
		ns.DeltaIOB = ns.MLP[MLPFeatSlopeIOB]
		out[i] = ns
	}
	return out, nil
}

// StepMin returns the sampling period of the windows (5 minutes throughout
// the paper's campaigns).
func (d *Dataset) StepMin() float64 { return 5 }
