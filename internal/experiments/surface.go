package experiments

import (
	"math"
	"math/rand"
	"sync"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/sweep"
)

// classes runs an ML monitor over an assembled input matrix under the
// configured precision.
func classes(m *monitor.MLMonitor, x *mat.Matrix) ([]int, error) {
	pred := make([]int, x.Rows())
	if err := m.ClassifyInto(Precision(), x, pred, nil); err != nil {
		return nil, err
	}
	return pred, nil
}

// noisyClasses classifies the test windows under the paper's Gaussian noise
// model: raw windows noised with σ in multiples of each sensor signal's std,
// drawn from seed. Figs 5, 6 and the Gaussian half of Fig 9 all score it.
func noisyClasses(m *monitor.MLMonitor, test *dataset.Dataset, sigma float64, seed int64) ([]int, error) {
	noisy, err := dataset.GaussianNoisySamples(rand.New(rand.NewSource(seed)), test, sigma)
	if err != nil {
		return nil, err
	}
	x, err := m.InputMatrix(noisy)
	if err != nil {
		return nil, err
	}
	return classes(m, x)
}

// score is the tolerance-window confusion matrix (Table II) of per-sample
// predictions against the test set's hazard occurrences.
func score(pred []int, test *dataset.Dataset, delta int) (metrics.Confusion, error) {
	rep, err := eval.EvaluatePredictions("", pred, test, eval.Options{Tolerance: delta, Workers: Workers()})
	if err != nil {
		return metrics.Confusion{}, err
	}
	return rep.Overall.Confusion, nil
}

// attackSurface is the level-invariant work of the robustness sweeps for
// one (simulator, ML monitor) pair, computed once and shared read-only by
// every σ/ε cell of Figs 2, 8, 9, 10 and the evasion table. FGSM's
// sign(∇_x J(x, y)) does not depend on ε, and neither do the clean inputs
// or their predictions, so a cell only applies its own level. The classes
// of the FGSM inputs are memoized too: Fig 8 and Fig 9's FGSM heatmap
// score the same attacked inputs. Cells must never write to x, grad or any
// classes slice the surface hands out: attacks derive fresh matrices from
// x and grad, and scoring only reads classes.
type attackSurface struct {
	m *monitor.MLMonitor
	// x is the normalized clean test matrix, InputMatrix(Test.Samples).
	x *mat.Matrix
	// grad is the white-box input gradient ∇_x J(x, TestLabels()) with no
	// knowledge indicators, taken on a private replica of the model exactly
	// as attack.FGSM takes it.
	grad *mat.Matrix
	// f64 holds the clean classes on the canonical f64 path.
	f64 []int

	// f32 holds the clean classes on the frozen float32 path, resolved on
	// the first read under -precision f32.
	f32 lazy[[]int]

	// fgsm holds fgsmClasses per (precision, ε), each resolved on first
	// read; mu guards the map.
	mu   sync.Mutex
	fgsm map[fgsmKey]*lazy[[]int]
}

// fgsmKey names one memoized FGSM classification: the precision and the
// bits of ε.
type fgsmKey struct {
	p   monitor.Precision
	eps uint64
}

// surface returns the named ML monitor's attack surface, building it on
// first use. Concurrent callers for the same name share a single build.
func (s *SimAssets) surface(name string) (*attackSurface, error) {
	return slot(&s.mu, s.surfaces, name).get(func() (*attackSurface, error) { return s.buildSurface(name) })
}

func (s *SimAssets) buildSurface(name string) (*attackSurface, error) {
	m, err := s.MLMonitor(name)
	if err != nil {
		return nil, err
	}
	x, err := m.InputMatrix(s.Test.Samples)
	if err != nil {
		return nil, err
	}
	f64, err := m.PredictClasses(x)
	if err != nil {
		return nil, err
	}
	// The gradient pass records backward state on the model, so it runs on
	// a private replica (shared weights, private caches and gradients) and
	// the shared monitor stays safe for concurrent inference.
	model, err := m.Model().Replicate()
	if err != nil {
		return nil, err
	}
	grad, err := model.InputGradient(x, s.TestLabels(), nil)
	if err != nil {
		return nil, err
	}
	return &attackSurface{m: m, x: x, grad: grad, f64: f64, fgsm: map[fgsmKey]*lazy[[]int]{}}, nil
}

// cleanClasses returns the clean-input classes under the configured
// precision, the twin of classes(m, x).
func (a *attackSurface) cleanClasses() ([]int, error) {
	if Precision() == monitor.F64 {
		return a.f64, nil
	}
	return a.f32.get(func() ([]int, error) { return classes(a.m, a.x) })
}

// fgsmClasses returns the monitor's classes, under the configured
// precision, on the white-box FGSM inputs x + ε·sign(grad), computed on the
// first request for this (precision, ε) and shared after that.
func (a *attackSurface) fgsmClasses(eps float64) ([]int, error) {
	key := fgsmKey{p: Precision(), eps: math.Float64bits(eps)}
	return slot(&a.mu, a.fgsm, key).get(func() ([]int, error) {
		adv, err := attack.FGSMStep(a.x, a.grad, eps)
		if err != nil {
			return nil, err
		}
		return classes(a.m, adv)
	})
}

// buildSurfaces builds, one (simulator, ML monitor) pair per sweep.Map
// cell, every attack surface the robustness grids read, with its clean
// classes at the configured precision. The grids call it first, so their
// cells only read finished surfaces: a cell never waits on its pair's
// build while the other workers idle. Once the surfaces exist it only
// looks them up.
func buildSurfaces(a *Assets) error {
	_, err := sweep.Map(Workers(), len(Simulators)*len(MLMonitorNames), func(i int) (struct{}, error) {
		sa := a.Sims[Simulators[i/len(MLMonitorNames)]]
		sf, err := sa.surface(MLMonitorNames[i%len(MLMonitorNames)])
		if err != nil {
			return struct{}{}, err
		}
		_, err = sf.cleanClasses()
		return struct{}{}, err
	})
	return err
}
