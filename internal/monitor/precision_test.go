package monitor

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/nn"
)

// TestNaNLogitClassAgreement pins that every path from logits to a class
// agrees on a NaN logit. A hand-set 2×2 dense layer maps the input
// (+Inf, −Inf) to the logits [NaN, +Inf]; PredictClasses, ClassifyMatrix
// and ClassifyInto at both precisions must all call it class 0, since the
// first logit seeds the argmax and no comparison against NaN succeeds.
func TestNaNLogitClassAgreement(t *testing.T) {
	d := nn.NewDense(rand.New(rand.NewSource(1)), 2, 2)
	w, b := d.Params()[0].W, d.Params()[1].W
	for i, v := range []float64{1, 1, 1, -1} {
		w.Set(i/2, i%2, v)
	}
	b.Zero()
	model, err := nn.NewModel(2, nil, d)
	if err != nil {
		t.Fatal(err)
	}
	m := &MLMonitor{arch: ArchMLP, model: model}
	x := mat.New(1, 2)
	x.Set(0, 0, math.Inf(1))
	x.Set(0, 1, math.Inf(-1))
	logits, err := model.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(logits.At(0, 0)) || !math.IsInf(logits.At(0, 1), 1) {
		t.Fatalf("logits %v, want [NaN +Inf]", logits.Row(0))
	}

	got := map[string]int{}
	pc, err := m.PredictClasses(x)
	if err != nil {
		t.Fatal(err)
	}
	got["PredictClasses"] = pc[0]
	v, err := m.ClassifyMatrix(x)
	if err != nil {
		t.Fatal(err)
	}
	got["ClassifyMatrix"] = 0
	if v[0].Unsafe {
		got["ClassifyMatrix"] = 1
	}
	for _, p := range []Precision{F64, F32} {
		for _, withConf := range []bool{false, true} {
			classes := make([]int, 1)
			var conf []float64
			if withConf {
				conf = make([]float64, 1)
			}
			if err := m.ClassifyInto(p, x, classes, conf); err != nil {
				t.Fatal(err)
			}
			key := "ClassifyInto " + string(p)
			if withConf {
				key += " with confidence"
			}
			got[key] = classes[0]
		}
	}
	for path, class := range got {
		if class != 0 {
			t.Errorf("%s: class %d, want 0 (all paths: %v)", path, class, got)
		}
	}
}
