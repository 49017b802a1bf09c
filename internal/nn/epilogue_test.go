package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// TestModelClassifyIntoMatchesSoftmax pins the f64 classification epilogue:
// on random finite logits from the MLP and LSTM classifiers, and on the
// same models with the two output columns tied exactly, Model.ClassifyInto
// returns the class and confidence of the softmax reference,
// Softmax(Infer(x)) followed by ArgmaxRow, bit for bit. On tied rows the
// first maximum wins.
func TestModelClassifyIntoMatchesSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	models := freezeTestModels(t, rng)
	for _, name := range []string{"mlp", "lstm"} {
		m := models[name]
		tied, err := m.Clone()
		if err != nil {
			t.Fatal(err)
		}
		last, ok := tied.layers[len(tied.layers)-1].(*Dense)
		if !ok || last.out != 2 {
			t.Fatalf("%s: final layer is not a 2-class dense layer", name)
		}
		for _, w := range []*mat.Matrix{last.w.W, last.b.W} {
			for i := 0; i < w.Rows(); i++ {
				w.Set(i, 1, w.At(i, 0))
			}
		}
		for _, v := range []struct {
			variant string
			model   *Model
		}{{name, m}, {name + "/tied", tied}} {
			variant, model := v.variant, v.model
			x := randBatch(rng, 33, model.InputSize())
			logits, err := model.Infer(x)
			if err != nil {
				t.Fatal(err)
			}
			probs := Softmax(logits)
			classes := make([]int, x.Rows())
			conf := make([]float64, x.Rows())
			if err := model.ClassifyInto(x, classes, conf); err != nil {
				t.Fatal(err)
			}
			for i := range classes {
				if model == tied && logits.At(i, 0) != logits.At(i, 1) {
					t.Fatalf("%s row %d: logits %v not tied", variant, i, logits.Row(i))
				}
				want := probs.ArgmaxRow(i)
				if classes[i] != want || math.Float64bits(conf[i]) != math.Float64bits(probs.At(i, want)) {
					t.Fatalf("%s row %d: ClassifyInto = (%d, %v), softmax reference = (%d, %v)",
						variant, i, classes[i], conf[i], want, probs.At(i, want))
				}
				if model == tied && (classes[i] != 0 || conf[i] != 0.5) {
					t.Fatalf("%s row %d: tied logits gave (%d, %v), want (0, 0.5)", variant, i, classes[i], conf[i])
				}
			}
		}
	}
}
