package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// evalLoss computes the model's loss on a batch without touching
// parameters or gradients.
func evalLoss(m *Model, x *mat.Matrix, labels []int, knowledge []float64) (float64, error) {
	logits, err := m.Infer(x)
	if err != nil {
		return 0, err
	}
	loss, _, err := m.loss.Compute(logits, labels, knowledge)
	return loss, err
}

// numericalInputGrad estimates d(loss)/d(input) by central differences.
func numericalInputGrad(t *testing.T, m *Model, x *mat.Matrix, labels []int, know []float64) *mat.Matrix {
	t.Helper()
	const h = 1e-5
	grad := mat.New(x.Rows(), x.Cols())
	for i := 0; i < x.Rows(); i++ {
		for j := 0; j < x.Cols(); j++ {
			orig := x.At(i, j)
			x.Set(i, j, orig+h)
			lp, err := evalLoss(m, x, labels, know)
			if err != nil {
				t.Fatalf("evalLoss(+h): %v", err)
			}
			x.Set(i, j, orig-h)
			lm, err := evalLoss(m, x, labels, know)
			if err != nil {
				t.Fatalf("evalLoss(-h): %v", err)
			}
			x.Set(i, j, orig)
			grad.Set(i, j, (lp-lm)/(2*h))
		}
	}
	return grad
}

// numericalParamGrad estimates d(loss)/d(param) by central differences.
func numericalParamGrad(t *testing.T, m *Model, p *Param, x *mat.Matrix, labels []int, know []float64) *mat.Matrix {
	t.Helper()
	const h = 1e-5
	grad := mat.New(p.W.Rows(), p.W.Cols())
	for i := 0; i < p.W.Rows(); i++ {
		for j := 0; j < p.W.Cols(); j++ {
			orig := p.W.At(i, j)
			p.W.Set(i, j, orig+h)
			lp, err := evalLoss(m, x, labels, know)
			if err != nil {
				t.Fatalf("evalLoss(+h): %v", err)
			}
			p.W.Set(i, j, orig-h)
			lm, err := evalLoss(m, x, labels, know)
			if err != nil {
				t.Fatalf("evalLoss(-h): %v", err)
			}
			p.W.Set(i, j, orig)
			grad.Set(i, j, (lp-lm)/(2*h))
		}
	}
	return grad
}

// analyticGrads runs one forward/backward pass and returns the input gradient
// with parameter gradients left in the accumulators.
func analyticGrads(t *testing.T, m *Model, x *mat.Matrix, labels []int, know []float64) *mat.Matrix {
	t.Helper()
	logits, err := m.Forward(x)
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	_, gradLogits, err := m.loss.Compute(logits, labels, know)
	if err != nil {
		t.Fatalf("loss: %v", err)
	}
	ZeroGrads(m.Params())
	gin, err := m.backward(gradLogits, true, true)
	if err != nil {
		t.Fatalf("backward: %v", err)
	}
	return gin
}

func maxRelDiff(a, b *mat.Matrix) float64 {
	var worst float64
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			av, bv := a.At(i, j), b.At(i, j)
			denom := math.Max(1e-4, math.Abs(av)+math.Abs(bv))
			d := math.Abs(av-bv) / denom
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}

func checkModelGradients(t *testing.T, m *Model, x *mat.Matrix, labels []int, know []float64, tol float64) {
	t.Helper()
	gin := analyticGrads(t, m, x, labels, know)
	num := numericalInputGrad(t, m, x, labels, know)
	if d := maxRelDiff(gin, num); d > tol {
		t.Errorf("input gradient mismatch: max rel diff %g > %g", d, tol)
	}
	// Snapshot analytic parameter grads before finite differences perturb
	// parameters (evalLoss does not touch grads, so accumulators survive,
	// but copy for clarity).
	for _, p := range m.Params() {
		analytic := p.G.Clone()
		num := numericalParamGrad(t, m, p, x, labels, know)
		if d := maxRelDiff(analytic, num); d > tol {
			t.Errorf("param %q gradient mismatch: max rel diff %g > %g", p.Name, d, tol)
		}
	}
}

func TestGradCheckMLPCrossEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m, err := NewMLPClassifier(rng, 5, MLPConfig{Hidden1: 7, Hidden2: 4, Classes: 3})
	if err != nil {
		t.Fatal(err)
	}
	x := mat.RandNormal(rng, 4, 5, 1)
	labels := []int{0, 2, 1, 2}
	checkModelGradients(t, m, x, labels, nil, 1e-4)
}

func TestGradCheckMLPSemanticLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m, err := NewMLPClassifier(rng, 4, MLPConfig{
		Hidden1: 6, Hidden2: 5, Classes: 2,
		Loss: SemanticLoss{Weight: 0.7, UnsafeClass: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	x := mat.RandNormal(rng, 5, 4, 1)
	labels := []int{0, 1, 1, 0, 1}
	know := []float64{0, 1, 0, 1, 1}
	checkModelGradients(t, m, x, labels, know, 1e-4)
}

func TestGradCheckSingleLSTMLastStep(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	lstm := NewLSTM(rng, 3, 4, 3, false)
	m, err := NewModel(9, CrossEntropy{}, lstm, NewDense(rng, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	x := mat.RandNormal(rng, 3, 9, 1)
	labels := []int{0, 1, 0}
	checkModelGradients(t, m, x, labels, nil, 2e-4)
}

func TestGradCheckStackedLSTM(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	m, err := NewLSTMClassifier(rng, 2, LSTMConfig{Hidden1: 4, Hidden2: 3, Steps: 4, Classes: 2})
	if err != nil {
		t.Fatal(err)
	}
	x := mat.RandNormal(rng, 3, 8, 1)
	labels := []int{1, 0, 1}
	checkModelGradients(t, m, x, labels, nil, 2e-4)
}

func TestGradCheckStackedLSTMSemantic(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	m, err := NewLSTMClassifier(rng, 2, LSTMConfig{
		Hidden1: 3, Hidden2: 3, Steps: 3, Classes: 2,
		Loss: SemanticLoss{Weight: 0.5, UnsafeClass: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	x := mat.RandNormal(rng, 2, 6, 1)
	labels := []int{1, 0}
	know := []float64{1, 0}
	checkModelGradients(t, m, x, labels, know, 2e-4)
}

// TestTrainingBackwardSkipsInputGradient pins the training step's shortcut:
// backward without the input gradient leaves exactly the parameter
// gradients of the full backward, bit for bit, and returns no input
// gradient.
func TestTrainingBackwardSkipsInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	mlp, err := NewMLPClassifier(rng, 5, MLPConfig{Hidden1: 7, Hidden2: 4, Classes: 3})
	if err != nil {
		t.Fatal(err)
	}
	lstm, err := NewLSTMClassifier(rng, 3, LSTMConfig{Hidden1: 6, Hidden2: 5, Steps: 4, Classes: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Model{mlp, lstm} {
		x := mat.RandNormal(rng, 9, m.InputSize(), 1)
		labels := make([]int, x.Rows())
		for i := range labels {
			labels[i] = i % 2
		}
		grads := func(inputGrad bool) ([]*mat.Matrix, *mat.Matrix) {
			logits, err := m.Forward(x)
			if err != nil {
				t.Fatal(err)
			}
			_, gradLogits, err := m.loss.Compute(logits, labels, nil)
			if err != nil {
				t.Fatal(err)
			}
			ZeroGrads(m.Params())
			gin, err := m.backward(gradLogits, inputGrad, true)
			if err != nil {
				t.Fatal(err)
			}
			var gs []*mat.Matrix
			for _, p := range m.Params() {
				gs = append(gs, p.G.Clone())
			}
			return gs, gin
		}
		full, gin := grads(true)
		if gin == nil {
			t.Fatalf("%s: full backward returned no input gradient", m.layers[0].Name())
		}
		short, none := grads(false)
		if none != nil {
			t.Fatalf("%s: training backward returned an input gradient", m.layers[0].Name())
		}
		for i := range full {
			for j, v := range full[i].Data() {
				if math.Float64bits(v) != math.Float64bits(short[i].Data()[j]) {
					t.Fatalf("%s: param %d grad element %d = %v, want %v",
						m.layers[0].Name(), i, j, short[i].Data()[j], v)
				}
			}
		}
	}
}
