package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// untiledInputGradient is the reference InputGradient is pinned to: one
// Forward over the whole batch, the loss gradient of its mean and the full
// backward pass, parameter gradients included.
func untiledInputGradient(t *testing.T, m *Model, x *mat.Matrix, labels []int, know []float64) *mat.Matrix {
	t.Helper()
	logits, err := m.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	_, gradLogits, err := m.loss.Compute(logits, labels, know)
	if err != nil {
		t.Fatal(err)
	}
	gin, err := m.backward(gradLogits, true, true)
	if err != nil {
		t.Fatal(err)
	}
	return gin.Clone()
}

// inputGradModels returns small MLP and LSTM models with the given loss,
// in that order.
func inputGradModels(t *testing.T, rng *rand.Rand, loss Loss) []*Model {
	t.Helper()
	mlp, err := NewMLPClassifier(rng, 7, MLPConfig{Hidden1: 16, Hidden2: 8, Loss: loss})
	if err != nil {
		t.Fatal(err)
	}
	lstm, err := NewLSTMClassifier(rng, 4, LSTMConfig{Hidden1: 8, Hidden2: 6, Steps: 3, Loss: loss})
	if err != nil {
		t.Fatal(err)
	}
	return []*Model{mlp, lstm}
}

// sameBits reports the first element whose bits differ between a and b in
// rows [lo, hi), or "" when they all match.
func sameBits(a, b *mat.Matrix, lo, hi int) string {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return fmt.Sprintf("shape %dx%d vs %dx%d", a.Rows(), a.Cols(), b.Rows(), b.Cols())
	}
	for i := lo; i < hi; i++ {
		for j := 0; j < a.Cols(); j++ {
			if math.Float64bits(a.At(i, j)) != math.Float64bits(b.At(i, j)) {
				return fmt.Sprintf("(%d,%d) = %x, want %x", i, j, math.Float64bits(a.At(i, j)), math.Float64bits(b.At(i, j)))
			}
		}
	}
	return ""
}

// TestInputGradientTiledBitExact pins the tiled, input-only InputGradient
// to the untiled full backward pass bit for bit: at batch sizes around the
// tile edge, for both losses and both architectures, and with a tile of
// non-finite and huge rows whose NaN payloads must match the reference and
// whose neighbours must keep the bits they have without them.
func TestInputGradientTiledBitExact(t *testing.T) {
	losses := []Loss{CrossEntropy{}, SemanticLoss{Weight: 0.7, UnsafeClass: 1}}
	for _, loss := range losses {
		rng := rand.New(rand.NewSource(41))
		for _, m := range inputGradModels(t, rng, loss) {
			name := m.layers[0].Name()
			for _, rows := range []int{1, inferTile - 1, inferTile, inferTile + 1, 517} {
				t.Run(fmt.Sprintf("%s/%s/rows=%d", loss.LossName(), name, rows), func(t *testing.T) {
					x := mat.RandNormal(rng, rows, m.InputSize(), 1)
					labels := make([]int, rows)
					know := make([]float64, rows)
					for i := range labels {
						labels[i] = rng.Intn(2)
						know[i] = float64(rng.Intn(2))
					}
					ref, err := m.Replicate()
					if err != nil {
						t.Fatal(err)
					}
					want := untiledInputGradient(t, ref, x, labels, know)
					got, err := m.InputGradient(x, labels, know)
					if err != nil {
						t.Fatal(err)
					}
					if d := sameBits(got, want, 0, rows); d != "" {
						t.Fatalf("tiled gradient differs from the untiled pass at %s", d)
					}
				})
			}
			t.Run(fmt.Sprintf("%s/%s/non-finite", loss.LossName(), name), func(t *testing.T) {
				const rows = 517
				x := mat.RandNormal(rng, rows, m.InputSize(), 1)
				labels := make([]int, rows)
				know := make([]float64, rows)
				for i := range labels {
					labels[i] = i % 2
					know[i] = float64(i / 2 % 2)
				}
				clean, err := m.InputGradient(x, labels, know)
				if err != nil {
					t.Fatal(err)
				}
				// Hostile rows inside the third tile only.
				lo := 2 * inferTile
				hostile := map[int]float64{
					lo + 1: math.NaN(),
					lo + 2: math.Float64frombits(0x7ff8_0000_dead_beef), // a NaN with a payload
					lo + 3: math.Inf(1),
					lo + 4: math.Inf(-1),
					lo + 5: 1e300,
				}
				for i, v := range hostile {
					for j := 0; j < x.Cols(); j += 2 {
						x.Set(i, j, v)
					}
				}
				ref, err := m.Replicate()
				if err != nil {
					t.Fatal(err)
				}
				want := untiledInputGradient(t, ref, x, labels, know)
				got, err := m.InputGradient(x, labels, know)
				if err != nil {
					t.Fatal(err)
				}
				if d := sameBits(got, want, 0, rows); d != "" {
					t.Fatalf("tiled gradient differs from the untiled pass at %s", d)
				}
				for i := 0; i < rows; i++ {
					if _, bad := hostile[i]; bad {
						continue
					}
					if d := sameBits(got, clean, i, i+1); d != "" {
						t.Fatalf("a hostile row moved the gradient of a clean row: %s", d)
					}
				}
				var nonFinite bool
				for i := range hostile {
					for _, v := range got.Row(i) {
						nonFinite = nonFinite || math.IsNaN(v) || math.IsInf(v, 0)
					}
				}
				if !nonFinite {
					t.Fatal("no hostile row produced a non-finite gradient; the case tests nothing")
				}
			})
		}
	}
}

// TestInputGradientLeavesParamGradsAlone pins that the input-only pass
// neither reads nor writes parameter gradients: accumulators holding
// arbitrary values keep their bits, and the input gradient is the one a
// model with clean accumulators gives.
func TestInputGradientLeavesParamGradsAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, m := range inputGradModels(t, rng, nil) {
		name := m.layers[0].Name()
		x := mat.RandNormal(rng, 70, m.InputSize(), 1)
		labels := make([]int, x.Rows())
		for i := range labels {
			labels[i] = i % 2
		}
		want, err := m.InputGradient(x, labels, nil)
		if err != nil {
			t.Fatal(err)
		}
		var dirty [][]byte
		for k, p := range m.Params() {
			for i := range p.G.Data() {
				p.G.Data()[i] = float64(k) + 0.25*float64(i)
			}
			dirty = append(dirty, matBytes(p.G))
		}
		got, err := m.InputGradient(x, labels, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := sameBits(got, want, 0, x.Rows()); d != "" {
			t.Fatalf("%s: dirty parameter gradients moved the input gradient at %s", name, d)
		}
		for k, p := range m.Params() {
			if string(matBytes(p.G)) != string(dirty[k]) {
				t.Fatalf("%s: InputGradient wrote parameter %q's gradient", name, p.Name)
			}
		}
	}
}
