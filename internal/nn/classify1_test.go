package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/sweep"
)

// TestClassify1MatchesBatch pins the single-row fast path to the batched
// ClassifyInto answer, bitwise: same class, same confidence.
func TestClassify1MatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for name, m := range freezeTestModels(t, rng) {
		im, err := m.Freeze()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		x := mat.ToFloat32(randBatch(rng, 16, m.InputSize()))
		classes := make([]int, 16)
		conf := make([]float64, 16)
		if err := im.ClassifyInto(x, classes, conf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < x.Rows(); i++ {
			class, c, err := im.Classify1(x.Row(i))
			if err != nil {
				t.Fatalf("%s row %d: %v", name, i, err)
			}
			if class != classes[i] || c != conf[i] {
				t.Fatalf("%s row %d: Classify1 = (%d, %v), batch = (%d, %v)",
					name, i, class, c, classes[i], conf[i])
			}
			if math.IsNaN(c) || c <= 0 || c > 1 {
				t.Fatalf("%s row %d: confidence %v out of range", name, i, c)
			}
		}
		if _, _, err := im.Classify1(make([]float32, m.InputSize()+1)); err == nil {
			t.Fatalf("%s: want error for wrong row width", name)
		}
	}
}

// TestClassify1ZeroAlloc pins the satellite requirement: a steady stream of
// single-row classifications allocates nothing (no []int/[]float64 per call).
func TestClassify1ZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race (sync.Pool sheds items)")
	}
	sweep.SetBudget(1)
	defer sweep.SetBudget(0)
	rng := rand.New(rand.NewSource(31))
	for name, m := range freezeTestModels(t, rng) {
		im, err := m.Freeze()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		row := mat.ToFloat32(randBatch(rng, 1, m.InputSize())).Row(0)
		// Warm up the pooled workspace at the 1-row shape.
		if _, _, err := im.Classify1(row); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := im.Classify1(row); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}); allocs != 0 {
			t.Fatalf("%s: Classify1 allocates %v objects per run in steady state", name, allocs)
		}
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
