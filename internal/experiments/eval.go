package experiments

import (
	"math/rand"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/monitor"
)

// Perturbation transforms a monitor's assembled (normalized) input matrix.
type Perturbation func(x *mat.Matrix) (*mat.Matrix, error)

// PredictSamples classifies samples into 0/1 predictions under the
// configured precision.
func PredictSamples(m monitor.Monitor, samples []dataset.Sample) ([]int, error) {
	return eval.Predict(m, Precision(), samples)
}

// PredictMatrixClasses runs an ML monitor over a pre-assembled input matrix
// under the configured precision.
func PredictMatrixClasses(m *monitor.MLMonitor, x *mat.Matrix) ([]int, error) {
	classes := make([]int, x.Rows())
	if err := m.ClassifyInto(Precision(), x, classes, nil); err != nil {
		return nil, err
	}
	return classes, nil
}

// NoPerturbation passes inputs through unchanged.
func NoPerturbation(x *mat.Matrix) (*mat.Matrix, error) { return x, nil }

// GaussianScore evaluates a monitor on raw-window-noised samples (σ in
// multiples of each sensor signal's std) with the tolerance-window metric.
func GaussianScore(m monitor.Monitor, test *dataset.Dataset, sigma float64, seed int64, delta int) (metrics.Confusion, error) {
	rng := rand.New(rand.NewSource(seed))
	noisy, err := dataset.GaussianNoisySamples(rng, test, sigma)
	if err != nil {
		return metrics.Confusion{}, err
	}
	pred, err := PredictSamples(m, noisy)
	if err != nil {
		return metrics.Confusion{}, err
	}
	return ScoreEpisodes(pred, test, delta)
}

// GaussianRobustness computes Eq (5) for an ML monitor under raw-window
// Gaussian noise.
func GaussianRobustness(m *monitor.MLMonitor, test *dataset.Dataset, sigma float64, seed int64) (float64, error) {
	xc, err := m.InputMatrix(test.Samples)
	if err != nil {
		return 0, err
	}
	orig, err := PredictMatrixClasses(m, xc)
	if err != nil {
		return 0, err
	}
	return gaussianRobustness(m, test, orig, sigma, seed)
}

// gaussianRobustness is GaussianRobustness against precomputed clean
// classes orig, so a σ sweep predicts the clean inputs once.
func gaussianRobustness(m *monitor.MLMonitor, test *dataset.Dataset, orig []int, sigma float64, seed int64) (float64, error) {
	rng := rand.New(rand.NewSource(seed))
	noisy, err := dataset.GaussianNoisySamples(rng, test, sigma)
	if err != nil {
		return 0, err
	}
	xn, err := m.InputMatrix(noisy)
	if err != nil {
		return 0, err
	}
	pert, err := PredictMatrixClasses(m, xn)
	if err != nil {
		return 0, err
	}
	return metrics.RobustnessError(orig, pert)
}

// FGSMPerturbation crafts white-box adversarial inputs against the monitor's
// own model using the true labels (Eqs 3-4). The gradient pass records
// backward state on the model, so each invocation attacks a private
// replica (shared weights, private caches and gradients), which lets
// concurrent callers share one trained monitor. Every invocation
// recomputes the input gradient; the figure sweeps instead share one
// gradient per (simulator, monitor) through the pair's attack surface and
// apply attack.FGSMStep per ε, with identical results.
func FGSMPerturbation(m *monitor.MLMonitor, labels []int, eps float64) Perturbation {
	return func(x *mat.Matrix) (*mat.Matrix, error) {
		model, err := m.Model().Replicate()
		if err != nil {
			return nil, err
		}
		return attack.FGSM(model, x, labels, eps)
	}
}

// PGDPerturbation crafts iterative projected-gradient attacks (Madry et
// al.) against the monitor's own model. knowledge must carry the per-sample
// Eq (2) indicators (dataset.Knowledge) when the monitor was trained with
// the semantic loss, so Custom monitors are attacked on the loss surface
// they were trained on — the plain losses ignore it, so passing it
// unconditionally is safe. Each invocation attacks a private replica,
// letting concurrent callers share one trained monitor. Unlike FGSM, every PGD
// iteration takes the gradient at the current adversarial point, so no
// part of it can be shared across budgets.
func PGDPerturbation(m *monitor.MLMonitor, labels []int, knowledge []float64, cfg attack.PGDConfig) Perturbation {
	return func(x *mat.Matrix) (*mat.Matrix, error) {
		model, err := m.Model().Replicate()
		if err != nil {
			return nil, err
		}
		return attack.PGDWithKnowledge(model, x, labels, knowledge, cfg)
	}
}

// Predictions runs a monitor over the test set with an optional input
// perturbation and returns per-sample 0/1 predictions. The rule-based
// monitor only supports NoPerturbation (it has no gradient and reads the
// un-normalized context).
func Predictions(m monitor.Monitor, test *dataset.Dataset, perturb Perturbation) ([]int, error) {
	if perturb == nil {
		perturb = NoPerturbation
	}
	if ml, ok := m.(*monitor.MLMonitor); ok {
		x, err := ml.InputMatrix(test.Samples)
		if err != nil {
			return nil, err
		}
		px, err := perturb(x)
		if err != nil {
			return nil, err
		}
		return PredictMatrixClasses(ml, px)
	}
	return PredictSamples(m, test.Samples)
}

// ScoreEpisodes computes the tolerance-window confusion matrix (Table II)
// of per-sample predictions against hazard occurrences — a thin adapter
// over eval.EvaluatePredictions that keeps only the overall slice.
func ScoreEpisodes(pred []int, test *dataset.Dataset, delta int) (metrics.Confusion, error) {
	rep, err := eval.EvaluatePredictions("", pred, test, eval.Options{Tolerance: delta, Workers: Workers()})
	if err != nil {
		return metrics.Confusion{}, err
	}
	return rep.Overall.Confusion, nil
}

// Score evaluates a monitor on the test set under a perturbation and returns
// the tolerance-window confusion matrix. With no perturbation it is the
// episode-streaming eval path end to end; perturbed scoring assembles the
// attacked prediction vector first (attacks operate on the full input
// matrix) and scores it per episode.
func Score(m monitor.Monitor, test *dataset.Dataset, delta int, perturb Perturbation) (metrics.Confusion, error) {
	if perturb == nil {
		rep, err := eval.Evaluate(m, test, eval.Options{Tolerance: delta, Workers: Workers(), Precision: Precision()})
		if err != nil {
			return metrics.Confusion{}, err
		}
		return rep.Overall.Confusion, nil
	}
	pred, err := Predictions(m, test, perturb)
	if err != nil {
		return metrics.Confusion{}, err
	}
	return ScoreEpisodes(pred, test, delta)
}

// RobustnessError evaluates Eq (5) for an ML monitor under a perturbation:
// the fraction of test samples whose predicted class flips.
func RobustnessError(m *monitor.MLMonitor, test *dataset.Dataset, perturb Perturbation) (float64, error) {
	x, err := m.InputMatrix(test.Samples)
	if err != nil {
		return 0, err
	}
	orig, err := PredictMatrixClasses(m, x)
	if err != nil {
		return 0, err
	}
	px, err := perturb(x)
	if err != nil {
		return 0, err
	}
	pert, err := PredictMatrixClasses(m, px)
	if err != nil {
		return 0, err
	}
	return metrics.RobustnessError(orig, pert)
}
