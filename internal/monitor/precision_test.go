package monitor

import (
	"math"
	"math/rand"
	"slices"
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

// TestNonFiniteClassAgreement runs non-finite inputs through untrained MLP
// and LSTM monitors: every row whose f64 logits hold a NaN must get the same
// class from ClassifyInto at both precisions. Rows hold NaN, ±Inf or −0 in
// every column or in every third one.
func TestNonFiniteClassAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mlp, err := nn.NewMLPClassifier(rng, 9, nn.MLPConfig{Hidden1: 24, Hidden2: 16})
	if err != nil {
		t.Fatal(err)
	}
	lstm, err := nn.NewLSTMClassifier(rng, 5, nn.LSTMConfig{Hidden1: 12, Hidden2: 8, Steps: 4})
	if err != nil {
		t.Fatal(err)
	}
	nanRows := 0
	for _, m := range []*MLMonitor{{arch: ArchMLP, model: mlp}, {arch: ArchLSTM, model: lstm}} {
		cols := m.model.InputSize()
		specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
		x := mat.RandNormal(rng, 2*len(specials), cols, 1)
		for k, v := range specials {
			for j := 0; j < cols; j++ {
				x.Set(2*k, j, v)
				if j%3 == 0 {
					x.Set(2*k+1, j, v)
				}
			}
		}
		logits, err := m.model.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		classes := map[Precision][]int{}
		for _, p := range []Precision{F64, F32} {
			classes[p] = make([]int, x.Rows())
			if err := m.ClassifyInto(p, x, classes[p], make([]float64, x.Rows())); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < x.Rows(); i++ {
			row := logits.Row(i)
			if !slices.ContainsFunc(row, math.IsNaN) {
				continue
			}
			nanRows++
			if classes[F32][i] != classes[F64][i] {
				t.Errorf("%s row %d (logits %v): f32 class %d, f64 class %d", m.arch, i, row, classes[F32][i], classes[F64][i])
			}
		}
	}
	if nanRows == 0 {
		t.Error("no row produced a NaN logit; the check saw nothing")
	}
}
