package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/mat"
	"repro/internal/sweep"
)

// freezeTestModels builds one randomly initialized model per supported
// architecture shape, including both LSTM stack positions (return-sequences
// and last-step).
func freezeTestModels(t *testing.T, rng *rand.Rand) map[string]*Model {
	t.Helper()
	models := make(map[string]*Model)

	mlp, err := NewMLPClassifier(rng, 9, MLPConfig{Hidden1: 24, Hidden2: 16})
	if err != nil {
		t.Fatal(err)
	}
	models["mlp"] = mlp

	lstm, err := NewLSTMClassifier(rng, 5, LSTMConfig{Hidden1: 12, Hidden2: 8, Steps: 4})
	if err != nil {
		t.Fatal(err)
	}
	models["lstm"] = lstm

	sub, err := NewSubstituteMLP(rng, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	models["substitute"] = sub

	return models
}

func randBatch(rng *rand.Rand, rows, cols int) *mat.Matrix {
	x := mat.New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
	}
	return x
}

// logits runs the frozen stack into a fresh batch × classes matrix.
func logits[T mat.Float](im *InferModel[T], x *mat.Dense[T]) (*mat.Dense[T], error) {
	dst := mat.NewDense[T](x.Rows(), im.outSize)
	return dst, im.Infer(x, dst)
}

// TestFreezeMatchesInfer is the property test behind the f32 path: for every
// architecture, the frozen twin's logits agree with the f64 Infer within
// float32 tolerance, and the argmax class agrees on every row.
func TestFreezeMatchesInfer(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for name, m := range freezeTestModels(t, rng) {
		im, err := m.Freeze()
		if err != nil {
			t.Fatalf("%s: Freeze: %v", name, err)
		}
		if im.InputSize() != m.InputSize() || im.outSize != m.OutputSize() {
			t.Fatalf("%s: frozen sizes %d→%d, want %d→%d", name,
				im.InputSize(), im.outSize, m.InputSize(), m.OutputSize())
		}
		for _, batch := range []int{1, 3, 17} {
			x := randBatch(rng, batch, m.InputSize())
			want, err := m.Infer(x)
			if err != nil {
				t.Fatalf("%s: f64 Infer: %v", name, err)
			}
			x32 := mat.ToFloat32(x)
			got, err := logits(im, x32)
			if err != nil {
				t.Fatalf("%s: f32 Infer: %v", name, err)
			}
			for i := 0; i < batch; i++ {
				for j := 0; j < m.OutputSize(); j++ {
					w := want.At(i, j)
					g := float64(got.At(i, j))
					// Relative f32 tolerance: quantized weights plus f32
					// accumulation keep errors well inside 1e-3 relative at
					// these depths.
					tol := 1e-3 * (1 + math.Abs(w))
					if math.Abs(g-w) > tol {
						t.Fatalf("%s batch=%d logit (%d,%d): f32 %v vs f64 %v", name, batch, i, j, g, w)
					}
				}
				if got.ArgmaxRow(i) != want.ArgmaxRow(i) {
					t.Fatalf("%s batch=%d row %d: argmax %d vs %d", name, batch, i, got.ArgmaxRow(i), want.ArgmaxRow(i))
				}
			}

			classes := make([]int, batch)
			conf := make([]float64, batch)
			if err := im.ClassifyInto(x32, classes, conf); err != nil {
				t.Fatalf("%s: ClassifyInto: %v", name, err)
			}
			probs := Softmax(want)
			for i := 0; i < batch; i++ {
				if classes[i] != want.ArgmaxRow(i) {
					t.Fatalf("%s row %d: ClassifyInto class %d, want %d", name, i, classes[i], want.ArgmaxRow(i))
				}
				if math.Abs(conf[i]-probs.At(i, classes[i])) > 1e-3 {
					t.Fatalf("%s row %d: confidence %v, want %v", name, i, conf[i], probs.At(i, classes[i]))
				}
			}
		}
	}
}

// TestFreezeNonFiniteMatchesInfer pins the frozen f32 stack against the f64
// one on NaN, ±Inf and −0 inputs (nonFiniteBatch), for the MLP and LSTM
// classifiers: a logit is NaN at f32 exactly where it is NaN at f64, and
// every row whose logits hold a NaN gets the same class from both
// precisions' ClassifyInto, the two calls MLMonitor.ClassifyInto chooses
// between. ReLU maps NaN to 0, so the MLP's logits mostly stay finite; the
// LSTM's carry NaN rows through to the class check.
func TestFreezeNonFiniteMatchesInfer(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	models := freezeTestModels(t, rng)
	nanRows := 0
	for _, name := range []string{"mlp", "lstm"} {
		m := models[name]
		im, err := m.Freeze()
		if err != nil {
			t.Fatalf("%s: Freeze: %v", name, err)
		}
		x := nonFiniteBatch(rng, m.InputSize())
		x32 := mat.ToFloat32(x)
		want, err := m.Infer(x)
		if err != nil {
			t.Fatalf("%s: f64 Infer: %v", name, err)
		}
		got, err := logits(im, x32)
		if err != nil {
			t.Fatalf("%s: f32 Infer: %v", name, err)
		}
		rows := x.Rows()
		want64, want32 := make([]int, rows), make([]int, rows)
		if err := m.ClassifyInto(x, want64, nil); err != nil {
			t.Fatalf("%s: f64 ClassifyInto: %v", name, err)
		}
		if err := im.ClassifyInto(x32, want32, make([]float64, rows)); err != nil {
			t.Fatalf("%s: f32 ClassifyInto: %v", name, err)
		}
		for i := 0; i < rows; i++ {
			hasNaN := false
			for j := 0; j < m.OutputSize(); j++ {
				w, g := want.At(i, j), float64(got.At(i, j))
				if math.IsNaN(g) != math.IsNaN(w) {
					t.Errorf("%s row %d logit %d: f32 %v, f64 %v", name, i, j, g, w)
				}
				hasNaN = hasNaN || math.IsNaN(w)
			}
			if !hasNaN {
				continue
			}
			nanRows++
			if want32[i] != want64[i] {
				t.Errorf("%s row %d (logits %v): f32 class %d, f64 class %d", name, i, want.Row(i), want32[i], want64[i])
			}
		}
	}
	if nanRows == 0 {
		t.Error("no NaN logits from the non-finite batches; the class check saw nothing")
	}
}

// TestFreezeSnapshotsWeights pins that Freeze copies weights: mutating the
// source model afterwards must not change frozen outputs.
func TestFreezeSnapshotsWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m, err := NewMLPClassifier(rng, 4, MLPConfig{Hidden1: 8, Hidden2: 6})
	if err != nil {
		t.Fatal(err)
	}
	im, err := m.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	x := mat.ToFloat32(randBatch(rng, 2, 4))
	before, err := logits(im, x)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Params() {
		p.W.Scale(-3)
	}
	after, err := logits(im, x)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range after.Data() {
		if v != before.Data()[i] {
			t.Fatal("frozen model changed after mutating the source weights")
		}
	}
}

// raceEnabled is set by race_test.go when the race detector is on; alloc
// pins skip because sync.Pool intentionally drops items under -race.
var raceEnabled bool

// TestInferModelZeroAlloc pins the steady-state allocation contract of the
// acceptance criteria: after warm-up, Infer and ClassifyInto allocate nothing.
func TestInferModelZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race (sync.Pool sheds items)")
	}
	// Zero-alloc is a property of the compute path itself; pin the kernels to
	// the serial path so a goroutine fan-out (which necessarily allocates)
	// doesn't obscure it.
	sweep.SetBudget(1)
	defer sweep.SetBudget(0)
	rng := rand.New(rand.NewSource(13))
	for name, m := range freezeTestModels(t, rng) {
		im, err := m.Freeze()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		x := mat.ToFloat32(randBatch(rng, 16, m.InputSize()))
		dst := mat.NewDense[float32](16, m.OutputSize())
		classes := make([]int, 16)
		conf := make([]float64, 16)
		// Warm up the pooled workspace at this batch size.
		if err := im.Infer(x, dst); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if err := im.Infer(x, dst); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}); allocs != 0 {
			t.Fatalf("%s: Infer allocates %v objects per run in steady state", name, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if err := im.ClassifyInto(x, classes, conf); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}); allocs != 0 {
			t.Fatalf("%s: ClassifyInto allocates %v objects per run in steady state", name, allocs)
		}

		// Changing batch sizes (16→7→16) and a batch of three tiles, the
		// last one short, reuse the grown scratch: after one pass over the
		// sequence, the f32 twin and the f64 model classify and infer
		// without allocating.
		var batches []*mat.Matrix
		for _, rows := range []int{16, 7, 16, 3*inferTile - 5} {
			batches = append(batches, randBatch(rng, rows, m.InputSize()))
		}
		xs32 := make([]*mat.Dense[float32], len(batches))
		dsts := make([]*mat.Dense[float32], len(batches))
		for i, b := range batches {
			xs32[i] = mat.ToFloat32(b)
			dsts[i] = mat.NewDense[float32](b.Rows(), m.OutputSize())
		}
		classes = make([]int, batches[len(batches)-1].Rows())
		conf = make([]float64, len(classes))
		run := func() {
			for i, b := range batches {
				n := b.Rows()
				if err := im.Infer(xs32[i], dsts[i]); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := im.ClassifyInto(xs32[i], classes[:n], conf[:n]); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := m.ClassifyInto(b, classes[:n], nil); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
		run()
		if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
			t.Fatalf("%s: the 16→7→16→3-tile sequence allocates %v objects per run", name, allocs)
		}
	}
}

// tileBatch is a rows×cols batch of random rows in which every third row
// carries one of NaN, ±Inf and −0 in alternate columns, so non-finite rows
// land in every tile and at tile edges.
func tileBatch(rng *rand.Rand, rows, cols int) *mat.Matrix {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	x := randBatch(rng, rows, cols)
	for i := 0; i < rows; i += 3 {
		v := specials[(i/3)%len(specials)]
		for j := i % 2; j < cols; j += 2 {
			x.Set(i, j, v)
		}
	}
	return x
}

// checkTiled compares im's tiled Infer and ClassifyInto on x bit for bit
// against the whole batch pushed through the stack at once.
func checkTiled[T mat.Float](t *testing.T, label string, im *InferModel[T], x *mat.Dense[T]) {
	t.Helper()
	want, err := im.run(im.newWorkspace(), x)
	if err != nil {
		t.Fatalf("%s: untiled run: %v", label, err)
	}
	rows := x.Rows()
	got := mat.NewDense[T](rows, im.outSize)
	if err := im.Infer(x, got); err != nil {
		t.Fatalf("%s: Infer: %v", label, err)
	}
	for i, w := range want.Data() {
		if g := got.Data()[i]; math.Float64bits(float64(g)) != math.Float64bits(float64(w)) {
			t.Fatalf("%s: logit %d: tiled %v, untiled %v", label, i, g, w)
		}
	}
	classes, bare, conf := make([]int, rows), make([]int, rows), make([]float64, rows)
	if err := im.ClassifyInto(x, classes, conf); err != nil {
		t.Fatalf("%s: ClassifyInto: %v", label, err)
	}
	if err := im.ClassifyInto(x, bare, nil); err != nil {
		t.Fatalf("%s: ClassifyInto without conf: %v", label, err)
	}
	for i := 0; i < rows; i++ {
		wc, wconf := classifyRow(want.Row(i))
		if classes[i] != wc || math.Float64bits(conf[i]) != math.Float64bits(wconf) || bare[i] != argmax(want.Row(i)) {
			t.Fatalf("%s: row %d: tiled class %d/%d conf %v, untiled class %d conf %v",
				label, i, classes[i], bare[i], conf[i], wc, wconf)
		}
	}
}

// TestTiledInferenceMatchesUntiled pins that running inference in
// inferTile-row tiles moves no bit: logits, argmax classes and softmax
// confidences equal the untiled stack's at batch sizes around the tile
// edges, at both precisions, with non-finite inputs in the batch.
func TestTiledInferenceMatchesUntiled(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for name, m := range freezeTestModels(t, rng) {
		im32, err := m.Freeze()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		im64, err := m.Stack()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, rows := range []int{0, 1, inferTile - 1, inferTile, inferTile + 1, 200} {
			x := tileBatch(rng, rows, m.InputSize())
			checkTiled(t, fmt.Sprintf("%s f64 %d rows", name, rows), im64, x)
			checkTiled(t, fmt.Sprintf("%s f32 %d rows", name, rows), im32, mat.ToFloat32(x))
		}
	}
}

// TestInferModelConcurrent hammers one frozen model from many goroutines and
// checks every result against the serial answer — the workspace pool must keep
// them independent.
func TestInferModelConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m, err := NewLSTMClassifier(rng, 3, LSTMConfig{Hidden1: 10, Hidden2: 6, Steps: 4})
	if err != nil {
		t.Fatal(err)
	}
	im, err := m.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]*mat.Dense[float32], 8)
	want := make([]*mat.Dense[float32], len(inputs))
	for i := range inputs {
		inputs[i] = mat.ToFloat32(randBatch(rng, 1+i%3, m.InputSize()))
		want[i], err = logits(im, inputs[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 25; iter++ {
				idx := (g + iter) % len(inputs)
				got, err := logits(im, inputs[idx])
				if err != nil {
					errs <- err
					return
				}
				for i, v := range got.Data() {
					if v != want[idx].Data()[i] {
						t.Errorf("goroutine %d: result %d diverged", g, idx)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestFreezeUnsupportedLayer ensures Freeze fails loudly instead of silently
// skipping a layer it cannot quantize.
func TestFreezeUnsupportedLayer(t *testing.T) {
	m, err := NewModel(3, nil, fakeLayer{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Freeze(); err == nil {
		t.Fatal("Freeze accepted an unsupported layer")
	}
}

type fakeLayer struct{}

func (fakeLayer) Name() string                                { return "fake" }
func (fakeLayer) OutputSize(in int) (int, error)              { return in, nil }
func (fakeLayer) Forward(x *mat.Matrix) (*mat.Matrix, error)  { return x, nil }
func (fakeLayer) Backward(g *mat.Matrix) (*mat.Matrix, error) { return g, nil }
func (fakeLayer) Replicate() Layer                            { return fakeLayer{} }
func (fakeLayer) Params() []*Param                            { return nil }
