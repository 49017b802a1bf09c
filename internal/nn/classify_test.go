package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// TestClassifyIntoRowMatchesBatch pins a single-row ClassifyInto (one
// served row) to the same row scored inside a 16-row batch, bitwise, on the
// frozen f32 stack and the f64 stack: same class, same confidence.
func TestClassifyIntoRowMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for name, m := range freezeTestModels(t, rng) {
		x := randBatch(rng, 16, m.InputSize())
		f32, err := m.Freeze()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f64, err := m.Stack()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkRowMatchesBatch(t, name+"/f32", f32, mat.ToFloat32(x))
		checkRowMatchesBatch(t, name+"/f64", f64, x)
	}
}

func checkRowMatchesBatch[T mat.Float](t *testing.T, name string, im *InferModel[T], x *mat.Dense[T]) {
	t.Helper()
	classes := make([]int, x.Rows())
	conf := make([]float64, x.Rows())
	if err := im.ClassifyInto(x, classes, conf); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	class, c := make([]int, 1), make([]float64, 1)
	for i := 0; i < x.Rows(); i++ {
		row, err := x.RowsView(i, i+1)
		if err != nil {
			t.Fatal(err)
		}
		if err := im.ClassifyInto(row, class, c); err != nil {
			t.Fatalf("%s row %d: %v", name, i, err)
		}
		if class[0] != classes[i] || math.Float64bits(c[0]) != math.Float64bits(conf[i]) {
			t.Fatalf("%s row %d: alone = (%d, %v), in batch = (%d, %v)",
				name, i, class[0], c[0], classes[i], conf[i])
		}
		if math.IsNaN(c[0]) || c[0] <= 0 || c[0] > 1 {
			t.Fatalf("%s row %d: confidence %v out of range", name, i, c[0])
		}
	}
	if err := im.ClassifyInto(mat.NewDense[T](1, im.InputSize()+1), class, c); err == nil {
		t.Fatalf("%s: want error for wrong row width", name)
	}
}

// extremeLogits are logit rows whose unshifted exponentials overflow or
// underflow, plus exact ties; class is the expected argmax (the first
// maximum).
var extremeLogits = []struct {
	name  string
	row   []float32
	class int
}{
	{"large", []float32{1000, 1001, 1002}, 2},
	{"very negative", []float32{-1000, -1000, -999}, 2},
	{"tie", []float32{3, 7, 7}, 1},
	{"all equal", []float32{5, 5, 5}, 0},
}

// TestClassifyRowExtremeLogits pins the f32 softmax epilogue at logits a
// naive exp cannot handle: the class is the first maximum, and the
// confidence is finite, in (0, 1], and exactly 1/Σexp(v−max) in float64.
func TestClassifyRowExtremeLogits(t *testing.T) {
	for _, tc := range extremeLogits {
		class, conf := classifyRow(tc.row)
		if class != tc.class {
			t.Errorf("%s: class = %d, want %d", tc.name, class, tc.class)
		}
		if math.IsNaN(conf) || math.IsInf(conf, 0) || conf <= 0 || conf > 1 {
			t.Errorf("%s: confidence %v not in (0, 1]", tc.name, conf)
		}
		mx := float64(tc.row[tc.class])
		var sum float64
		for _, v := range tc.row {
			sum += math.Exp(float64(v) - mx)
		}
		if want := 1 / sum; conf != want {
			t.Errorf("%s: confidence = %v, want %v", tc.name, conf, want)
		}
	}
}
