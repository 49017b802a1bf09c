package nn

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/artifact"
	"repro/internal/mat"
)

func TestSoftmaxRowsSumToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		logits := mat.RandNormal(rng, 1+rng.Intn(6), 2+rng.Intn(5), 5)
		p := Softmax(logits)
		for i := 0; i < p.Rows(); i++ {
			var s float64
			for _, v := range p.Row(i) {
				if v < 0 || v > 1 {
					return false
				}
				s += v
			}
			if math.Abs(s-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// predict returns the model's class probabilities (softmax of the logits).
func predict(m *Model, x *mat.Matrix) (*mat.Matrix, error) {
	logits, err := m.Infer(x)
	if err != nil {
		return nil, err
	}
	return Softmax(logits), nil
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	logits := mat.RandNormal(rng, 3, 4, 2)
	shifted := logits.Clone()
	for i := range shifted.Data() {
		shifted.Data()[i] += 1000
	}
	if !mat.Equal(Softmax(logits), Softmax(shifted), 1e-9) {
		t.Fatal("softmax must be invariant to per-row shifts")
	}
}

func TestSoftmaxPreservesArgmax(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		logits := mat.RandNormal(rng, 2, 5, 3)
		p := Softmax(logits)
		for i := 0; i < 2; i++ {
			if logits.ArgmaxRow(i) != p.ArgmaxRow(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSoftmaxExtremeLogits checks Softmax at the epilogue's extreme logits:
// every row sums to 1, holds no NaN or Inf, and peaks at the same class.
func TestSoftmaxExtremeLogits(t *testing.T) {
	for _, tc := range extremeLogits {
		row := make([]float64, len(tc.row))
		for j, v := range tc.row {
			row[j] = float64(v)
		}
		logits, err := mat.FromSlice(1, len(row), row)
		if err != nil {
			t.Fatal(err)
		}
		p := Softmax(logits)
		var sum float64
		for j, v := range p.Row(0) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: p[%d] = %v", tc.name, j, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("%s: row sums to %v", tc.name, sum)
		}
		if got := p.ArgmaxRow(0); got != tc.class {
			t.Errorf("%s: argmax = %d, want %d", tc.name, got, tc.class)
		}
	}
}

// TestLossExtremeLogits pins both losses at logits whose unshifted
// exponentials overflow: for every label and knowledge indicator the loss is
// finite and at most the clamped −log(1e-12) plus the semantic weight, every
// gradient entry is finite, and each cross-entropy gradient row (p − onehot)
// sums to zero.
func TestLossExtremeLogits(t *testing.T) {
	rows := [][]float64{{1000, 1001}, {-1000, 1000}}
	losses := []struct {
		loss   Loss
		weight float64
	}{
		{CrossEntropy{}, 0},
		{SemanticLoss{Weight: 1, UnsafeClass: 1}, 1},
	}
	for _, row := range rows {
		logits, err := mat.FromSlice(1, len(row), row)
		if err != nil {
			t.Fatal(err)
		}
		for _, label := range []int{0, 1} {
			for _, know := range []float64{0, 1} {
				for _, lc := range losses {
					name := fmt.Sprintf("%s logits=%v label=%d knowledge=%v", lc.loss.LossName(), row, label, know)
					loss, grad, err := lc.loss.Compute(logits, []int{label}, []float64{know})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if bound := -math.Log(1e-12) + lc.weight; math.IsNaN(loss) || math.IsInf(loss, 0) || loss > bound {
						t.Errorf("%s: loss %v, want finite and <= %v", name, loss, bound)
					}
					var sum float64
					for j, g := range grad.Row(0) {
						if math.IsNaN(g) || math.IsInf(g, 0) {
							t.Errorf("%s: grad[%d] = %v", name, j, g)
						}
						sum += g
					}
					if _, ce := lc.loss.(CrossEntropy); ce && math.Abs(sum) > 1e-12 {
						t.Errorf("%s: gradient row sums to %v, want 0", name, sum)
					}
				}
			}
		}
	}
}

func TestCrossEntropyKnownValue(t *testing.T) {
	// Uniform logits over 2 classes → loss = ln 2.
	logits := mat.New(1, 2)
	loss, grad, err := CrossEntropy{}.Compute(logits, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loss-math.Log(2)) > 1e-12 {
		t.Fatalf("loss = %v, want ln2", loss)
	}
	// grad = p - onehot = [0.5-1, 0.5] = [-0.5, 0.5]
	if math.Abs(grad.At(0, 0)+0.5) > 1e-12 || math.Abs(grad.At(0, 1)-0.5) > 1e-12 {
		t.Fatalf("grad = %v", grad)
	}
}

func TestCrossEntropyLabelValidation(t *testing.T) {
	logits := mat.New(2, 2)
	if _, _, err := (CrossEntropy{}).Compute(logits, []int{0}, nil); err == nil {
		t.Fatal("want error for label/row mismatch")
	}
	if _, _, err := (CrossEntropy{}).Compute(logits, []int{0, 5}, nil); err == nil {
		t.Fatal("want error for out-of-range label")
	}
}

func TestSemanticLossReducesToCEWhenAgreeing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	logits := mat.RandNormal(rng, 3, 2, 1)
	labels := []int{1, 0, 1}
	ceLoss, ceGrad, err := CrossEntropy{}.Compute(logits.Clone(), labels, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Weight 0 → identical to CE regardless of indicators.
	sem := SemanticLoss{Weight: 0, UnsafeClass: 1}
	sLoss, sGrad, err := sem.Compute(logits.Clone(), labels, []float64{1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ceLoss-sLoss) > 1e-12 || !mat.Equal(ceGrad, sGrad, 1e-12) {
		t.Fatal("semantic loss with weight 0 must equal cross-entropy")
	}
	// Nil knowledge → also identical.
	sem = SemanticLoss{Weight: 2, UnsafeClass: 1}
	sLoss, sGrad, err = sem.Compute(logits.Clone(), labels, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ceLoss-sLoss) > 1e-12 || !mat.Equal(ceGrad, sGrad, 1e-12) {
		t.Fatal("semantic loss without knowledge must equal cross-entropy")
	}
}

func TestSemanticLossPenalizesDisagreement(t *testing.T) {
	// Model predicts safe (class 0) with high confidence; knowledge says
	// unsafe. Semantic loss must exceed plain CE.
	logits, err := mat.FromSlice(1, 2, []float64{4, -4})
	if err != nil {
		t.Fatal(err)
	}
	labels := []int{0}
	ce, _, err := CrossEntropy{}.Compute(logits.Clone(), labels, nil)
	if err != nil {
		t.Fatal(err)
	}
	semLoss, _, err := SemanticLoss{Weight: 1, UnsafeClass: 1}.Compute(logits.Clone(), labels, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if semLoss <= ce {
		t.Fatalf("semantic loss %v should exceed CE %v under disagreement", semLoss, ce)
	}
}

func TestSemanticLossValidation(t *testing.T) {
	logits := mat.New(2, 2)
	if _, _, err := (SemanticLoss{Weight: 1, UnsafeClass: 1}).Compute(logits, []int{0, 0}, []float64{1}); err == nil {
		t.Fatal("want error for knowledge length mismatch")
	}
	if _, _, err := (SemanticLoss{Weight: 1, UnsafeClass: 7}).Compute(logits, []int{0, 0}, []float64{1, 0}); err == nil {
		t.Fatal("want error for unsafe class out of range")
	}
}

// trainToy fits model to a linearly separable 2-D problem and returns final
// accuracy.
func trainToy(t *testing.T, m *Model, opt Optimizer, epochs int) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	n := 200
	x := mat.New(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		if a+b > 0 {
			labels[i] = 1
		}
	}
	for e := 0; e < epochs; e++ {
		if _, err := m.TrainBatch(x, labels, nil, opt); err != nil {
			t.Fatalf("TrainBatch: %v", err)
		}
	}
	pred, err := m.PredictClasses(x)
	if err != nil {
		t.Fatalf("PredictClasses: %v", err)
	}
	correct := 0
	for i, p := range pred {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(n)
}

func TestMLPTrainsWithAdam(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, err := NewMLPClassifier(rng, 2, MLPConfig{Hidden1: 16, Hidden2: 8})
	if err != nil {
		t.Fatal(err)
	}
	if acc := trainToy(t, m, NewAdam(0.01), 150); acc < 0.95 {
		t.Fatalf("Adam training accuracy = %v, want ≥ 0.95", acc)
	}
}

func TestMLPTrainsWithSGDMomentum(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m, err := NewMLPClassifier(rng, 2, MLPConfig{Hidden1: 16, Hidden2: 8})
	if err != nil {
		t.Fatal(err)
	}
	if acc := trainToy(t, m, &SGD{LR: 0.05, Momentum: 0.9}, 250); acc < 0.9 {
		t.Fatalf("SGD training accuracy = %v, want ≥ 0.9", acc)
	}
}

func TestLSTMLearnsTemporalPattern(t *testing.T) {
	// Class = whether the sum of the last step exceeds the first step:
	// requires using temporal order, which a memoryless readout of the
	// final step alone cannot provide.
	rng := rand.New(rand.NewSource(8))
	steps, feat, n := 4, 2, 240
	x := mat.New(n, steps*feat)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		var first, last float64
		for s := 0; s < steps; s++ {
			for f := 0; f < feat; f++ {
				v := rng.NormFloat64()
				x.Set(i, s*feat+f, v)
				if s == 0 {
					first += v
				}
				if s == steps-1 {
					last += v
				}
			}
		}
		if last > first {
			labels[i] = 1
		}
	}
	m, err := NewLSTMClassifier(rng, feat, LSTMConfig{Hidden1: 12, Hidden2: 8, Steps: steps})
	if err != nil {
		t.Fatal(err)
	}
	opt := NewAdam(0.01)
	for e := 0; e < 220; e++ {
		if _, err := m.TrainBatch(x, labels, nil, opt); err != nil {
			t.Fatal(err)
		}
	}
	pred, err := m.PredictClasses(x)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, p := range pred {
		if p == labels[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(n); acc < 0.9 {
		t.Fatalf("LSTM accuracy = %v, want ≥ 0.9", acc)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	orig, err := NewLSTMClassifier(rng, 3, LSTMConfig{
		Hidden1: 5, Hidden2: 4, Steps: 3,
		Loss: SemanticLoss{Weight: 0.4, UnsafeClass: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	x := mat.RandNormal(rng, 4, 9, 1)
	want, err := predict(orig, x)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	got, err := predict(loaded, x)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.Equal(got, want, 1e-12) {
		t.Fatal("loaded model predictions differ from original")
	}
	sl, ok := loaded.loss.(SemanticLoss)
	if !ok || sl.Weight != 0.4 || sl.UnsafeClass != 1 {
		t.Fatalf("loss not restored: %#v", loaded.loss)
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	orig, err := NewMLPClassifier(rng, 3, MLPConfig{Hidden1: 4, Hidden2: 4})
	if err != nil {
		t.Fatal(err)
	}
	clone, err := orig.Clone()
	if err != nil {
		t.Fatalf("Clone: %v", err)
	}
	x := mat.RandNormal(rng, 2, 3, 1)
	before, err := predict(clone, x)
	if err != nil {
		t.Fatal(err)
	}
	// Train the original; the clone must be unaffected.
	opt := NewAdam(0.05)
	for i := 0; i < 20; i++ {
		if _, err := orig.TrainBatch(x, []int{0, 1}, nil, opt); err != nil {
			t.Fatal(err)
		}
	}
	after, err := predict(clone, x)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.Equal(before, after, 0) {
		t.Fatal("training the original changed the clone")
	}
}

// TestLoadRejectsGarbage feeds Load specs that must fail with an error,
// never a panic or an allocation sized by an unchecked field. The shape
// cases used to end the process: a 1×2³² bias allocation ran out of
// memory, a 2×3037000500 weight matrix asked for 48 GB, and a hidden size
// of −1 panicked in the matrix constructor.
// modelFile builds a model file holding the given meta fields, layer
// records (kind, then dimensions) and param values.
func modelFile(inSize int, loss string, layers [][]int, params []float64) []byte {
	var meta, p artifact.Buf
	meta.I64(inSize)
	meta.Str(loss)
	meta.F64(0)
	meta.I64(0)
	meta.I64(len(layers))
	for _, l := range layers {
		for _, v := range l {
			meta.I64(v)
		}
	}
	p.Floats(params)
	var b bytes.Buffer
	_ = artifact.WriteSections(&b, modelMagic, modelVersion, meta.B, p.B)
	return b.Bytes()
}

func TestLoadRejectsGarbage(t *testing.T) {
	const ce = "cross_entropy"
	dense := func(in, out int) []int { return []int{kindDense, in, out} }
	for _, c := range []struct {
		name string
		file []byte
		want string
	}{
		{"not a model file", []byte(`{"inputSize":2,"layers":[]}`), "bad magic"},
		{"input size 0", modelFile(0, ce, [][]int{{kindReLU}}, nil), "input size 0"},
		{"unknown kind", modelFile(2, ce, [][]int{{9}}, nil), "unknown layer kind"},
		{"unknown loss", modelFile(2, "hinge", [][]int{{kindReLU}}, nil), "unknown loss"},
		{"dense 2^32 squared", modelFile(1<<32, ce, [][]int{dense(1<<32, 1<<32)}, nil), "exceeds"},
		{"dense 48 GB", modelFile(2, ce, [][]int{dense(2, 3037000500)}, []float64{1, 2}), "exceeds"},
		{"lstm hidden -1", modelFile(6, ce, [][]int{{kindLSTM, 2, -1, 3, 0}}, nil), "at least 1"},
		{"lstm returnSequences 2", modelFile(6, ce, [][]int{{kindLSTM, 2, 1, 3, 2}}, make([]float64, 16)), "at least 1"},
		{"short data", modelFile(2, ce, [][]int{dense(2, 2)}, []float64{1, 2, 3, 0, 0}), "exceeds"},
		{"extra data", modelFile(2, ce, [][]int{dense(2, 2)}, make([]float64, 7)), "params section holds 56 bytes, the layers declare 6 values"},
		{"bytes past the last layer", modelFile(2, ce, [][]int{{kindReLU, 0, 0}}, nil), "16 bytes past the last layer"},
		{"lstm record cut short", modelFile(6, ce, [][]int{{kindLSTM, 2, 1, 3}}, make([]float64, 16)), "meta section truncated"},
	} {
		_, err := Load(bytes.NewReader(c.file))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// FuzzLoad treats a model entry (a stored black-box substitute, or an
// apstrain model section) as hostile bytes: Load may reject it, but never
// panic, and a model it returns must save to bytes that load again and
// save the same, and, when its input is narrow enough to build, classify
// and take the input gradient of two rows. Seeds: a saved MLP and LSTM
// under both losses, cut short and with a flipped checksum byte, and the
// TestLoadRejectsGarbage fixtures.
func FuzzLoad(f *testing.F) {
	rng := rand.New(rand.NewSource(61))
	mlp, err := NewMLPClassifier(rng, 3, MLPConfig{Hidden1: 4, Hidden2: 3})
	if err != nil {
		f.Fatal(err)
	}
	lstm, err := NewLSTMClassifier(rng, 2, LSTMConfig{Hidden1: 3, Hidden2: 2, Steps: 2, Loss: SemanticLoss{Weight: 0.5, UnsafeClass: 1}})
	if err != nil {
		f.Fatal(err)
	}
	for _, m := range []*Model{mlp, lstm} {
		var b bytes.Buffer
		if err := m.Save(&b); err != nil {
			f.Fatal(err)
		}
		saved := b.Bytes()
		f.Add(saved)
		f.Add(saved[:len(saved)-12])
		crcBad := bytes.Clone(saved)
		crcBad[len(crcBad)-9] ^= 1
		f.Add(crcBad)
	}
	const ce = "cross_entropy"
	f.Add(modelFile(2, ce, [][]int{{kindDense, 2, 2}}, []float64{1, 2, 3, 4, 0, 0}))
	f.Add(modelFile(2, ce, [][]int{{kindDense, 2, 3037000500}}, []float64{1, 2}))
	f.Add(modelFile(6, ce, [][]int{{kindLSTM, 2, 1, 3, 2}}, make([]float64, 16)))
	f.Add(modelFile(6, ce, [][]int{{kindLSTM, 2, 1, 3}}, make([]float64, 16)))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := m.Save(&first); err != nil {
			t.Fatalf("a loaded model does not save: %v", err)
		}
		again, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("a saved model does not load: %v", err)
		}
		if err := again.Save(&second); err != nil || !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save→load→save changed the bytes (err %v)", err)
		}
		// The input width bounds every activation a pass allocates (an
		// LSTM's steps are at most its input width), and the params section
		// every weight, so passes over a narrow input stay small.
		if m.InputSize() > 1<<12 {
			return
		}
		x := mat.New(2, m.InputSize())
		for j := range x.Data() {
			x.Data()[j] = float64(j%5) - 2
		}
		if _, err := m.PredictClasses(x); err != nil {
			t.Fatalf("a loaded model cannot classify a %d-wide row: %v", m.InputSize(), err)
		}
		_, _ = m.InputGradient(x, []int{0, 0}, []float64{0, 1})
	})
}

// TestSaveLoadBitExact pins the model file as a lossless codec: save, load
// and save again gives the same bytes, and every weight keeps its bits,
// signed zeros, subnormals and NaN payloads included, for the MLP and LSTM
// stacks under both losses.
func TestSaveLoadBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	special := []float64{math.Copysign(0, -1), 5e-324, -2.5e-310, math.Float64frombits(0x7ff8_0000_dead_beef), math.Inf(-1)}
	for _, loss := range []Loss{CrossEntropy{}, SemanticLoss{Weight: 0.3, UnsafeClass: 1}} {
		mlp, err := NewMLPClassifier(rng, 5, MLPConfig{Hidden1: 4, Hidden2: 3, Loss: loss})
		if err != nil {
			t.Fatal(err)
		}
		lstm, err := NewLSTMClassifier(rng, 3, LSTMConfig{Hidden1: 4, Hidden2: 3, Steps: 2, Loss: loss})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []*Model{mlp, lstm} {
			for i, p := range m.Params() {
				copy(p.W.Data()[i%2:], special)
			}
			var first, second bytes.Buffer
			if err := m.Save(&first); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(bytes.NewReader(first.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if err := loaded.Save(&second); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("%s: save→load→save changed the bytes", loss.LossName())
			}
			if loaded.loss != m.loss {
				t.Fatalf("loss %#v restored as %#v", m.loss, loaded.loss)
			}
			lp := loaded.Params()
			for i, p := range m.Params() {
				for k, v := range p.W.Data() {
					if got := lp[i].W.Data()[k]; math.Float64bits(got) != math.Float64bits(v) {
						t.Fatalf("param %d value %d: bits %#x, want %#x", i, k, math.Float64bits(got), math.Float64bits(v))
					}
				}
			}
		}
	}
}

func TestModelShapeValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	// Mis-chained dense layers must fail at construction.
	if _, err := NewModel(4, nil, NewDense(rng, 4, 8), NewDense(rng, 9, 2)); err == nil {
		t.Fatal("want shape-chain error")
	}
	// Bad input width must fail at Forward.
	m, err := NewModel(4, nil, NewDense(rng, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Forward(mat.New(1, 5)); err == nil {
		t.Fatal("want input-width error")
	}
	if _, err := NewModel(4, nil); err == nil {
		t.Fatal("want error for empty layer list")
	}
}

func TestBackwardBeforeForwardFails(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	layers := []Layer{
		NewDense(rng, 2, 2), NewReLU(),
		NewLSTM(rng, 2, 2, 2, false),
	}
	for _, l := range layers {
		if _, err := l.Backward(mat.New(1, 2)); !errors.Is(err, ErrNotReady) {
			t.Errorf("%s: err = %v, want ErrNotReady", l.Name(), err)
		}
	}
}

func TestInputGradientNonZero(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	m, err := NewLSTMClassifier(rng, 2, LSTMConfig{Hidden1: 4, Hidden2: 4, Steps: 3})
	if err != nil {
		t.Fatal(err)
	}
	x := mat.RandNormal(rng, 2, 6, 1)
	g, err := m.InputGradient(x, []int{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.MaxAbs() == 0 {
		t.Fatal("input gradient should not vanish on random init")
	}
	if g.Rows() != 2 || g.Cols() != 6 {
		t.Fatalf("input gradient shape %dx%d, want 2x6", g.Rows(), g.Cols())
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize ||w||² via gradients g = 2w.
	w, err := mat.FromSlice(1, 3, []float64{5, -3, 2})
	if err != nil {
		t.Fatal(err)
	}
	p := newParam("w", w)
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		p.G.Zero()
		if err := p.G.AddScaled(2, p.W); err != nil {
			t.Fatal(err)
		}
		if err := opt.Step([]*Param{p}); err != nil {
			t.Fatal(err)
		}
	}
	if p.W.MaxAbs() > 1e-2 {
		t.Fatalf("Adam failed to converge: %v", p.W)
	}
}

func TestOptimizerDeterminism(t *testing.T) {
	build := func() *Model {
		rng := rand.New(rand.NewSource(77))
		m, err := NewMLPClassifier(rng, 2, MLPConfig{Hidden1: 4, Hidden2: 4})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	run := func(m *Model) *mat.Matrix {
		rng := rand.New(rand.NewSource(78))
		x := mat.RandNormal(rng, 8, 2, 1)
		labels := []int{0, 1, 0, 1, 1, 0, 1, 0}
		opt := NewAdam(0.01)
		for i := 0; i < 30; i++ {
			if _, err := m.TrainBatch(x, labels, nil, opt); err != nil {
				t.Fatal(err)
			}
		}
		probs, err := predict(m, x)
		if err != nil {
			t.Fatal(err)
		}
		return probs
	}
	a, b := run(build()), run(build())
	if !mat.Equal(a, b, 0) {
		t.Fatal("training must be bit-for-bit deterministic for a fixed seed")
	}
}

func TestSemanticLossImprovesAgreementWithRules(t *testing.T) {
	// Synthetic sanity check of the paper's core mechanism: when labels are
	// noisy but the knowledge indicator is clean, the semantic loss pulls
	// predictions toward the rule verdicts.
	rng := rand.New(rand.NewSource(90))
	n := 300
	x := mat.New(n, 2)
	labels := make([]int, n)
	know := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		truth := 0
		if a > 0 {
			truth = 1
		}
		know[i] = float64(truth)
		labels[i] = truth
		if rng.Float64() < 0.25 { // 25% label noise
			labels[i] = 1 - labels[i]
		}
	}
	agree := func(m *Model) float64 {
		pred, err := m.PredictClasses(x)
		if err != nil {
			t.Fatal(err)
		}
		c := 0
		for i, p := range pred {
			if float64(p) == know[i] {
				c++
			}
		}
		return float64(c) / float64(n)
	}
	train := func(loss Loss, seed int64) *Model {
		mrng := rand.New(rand.NewSource(seed))
		m, err := NewMLPClassifier(mrng, 2, MLPConfig{Hidden1: 16, Hidden2: 8, Loss: loss})
		if err != nil {
			t.Fatal(err)
		}
		opt := NewAdam(0.01)
		for e := 0; e < 120; e++ {
			if _, err := m.TrainBatch(x, labels, know, opt); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	base := agree(train(CrossEntropy{}, 91))
	custom := agree(train(SemanticLoss{Weight: 2, UnsafeClass: 1}, 91))
	if custom < base {
		t.Fatalf("semantic loss should not reduce rule agreement: base %v custom %v", base, custom)
	}
	if custom < 0.9 {
		t.Fatalf("semantic-loss rule agreement = %v, want ≥ 0.9", custom)
	}
}

func TestLSTMReturnSequencesShape(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	l := NewLSTM(rng, 3, 4, 5, true)
	out, err := l.Forward(mat.RandNormal(rng, 2, 15, 1))
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 2 || out.Cols() != 20 {
		t.Fatalf("return-sequences output %dx%d, want 2x20", out.Rows(), out.Cols())
	}
	// Last-step-only variant returns just the final hidden state, equal to
	// the last H columns of the sequence output.
	l2 := NewLSTM(rng, 3, 4, 5, false)
	for i, p := range l2.Params() {
		if err := p.W.CopyFrom(l.Params()[i].W); err != nil {
			t.Fatal(err)
		}
	}
	x := mat.RandNormal(rng, 2, 15, 1)
	seq, err := l.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	last, err := l2.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	lastFromSeq := mat.New(2, 4)
	if err := mat.SliceColsInto(lastFromSeq, seq, 16, 20); err != nil {
		t.Fatal(err)
	}
	if !mat.Equal(last, lastFromSeq, 1e-12) {
		t.Fatal("final hidden state mismatch between modes")
	}
}

func TestLSTMOutputSizeValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	l := NewLSTM(rng, 3, 4, 5, false)
	if _, err := l.OutputSize(14); err == nil {
		t.Fatal("want error for wrong input width")
	}
	if out, err := l.OutputSize(15); err != nil || out != 4 {
		t.Fatalf("OutputSize = %d, %v", out, err)
	}
	if _, err := l.Forward(mat.New(1, 7)); err == nil {
		t.Fatal("want forward error for wrong width")
	}
	if l.steps != 5 || l.hidden != 4 || l.inputSize != 3 || l.returnSeqs {
		t.Fatal("constructor fields broken")
	}
}

func TestLSTMForgetGateBiasInit(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	l := NewLSTM(rng, 2, 3, 2, false)
	b := l.Params()[2].W // bias is the third param
	for j := 0; j < 3; j++ {
		if b.At(0, j) != 0 {
			t.Fatalf("input gate bias %v, want 0", b.At(0, j))
		}
		if b.At(0, 3+j) != 1 {
			t.Fatalf("forget gate bias %v, want 1", b.At(0, 3+j))
		}
	}
}

func TestArchBuilderValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	if _, err := NewMLPClassifier(rng, 0, MLPConfig{}); err == nil {
		t.Fatal("want error for zero input size")
	}
	if _, err := NewLSTMClassifier(rng, 0, LSTMConfig{}); err == nil {
		t.Fatal("want error for zero feature size")
	}
	// Defaults fill to the paper's sizes.
	m, err := NewMLPClassifier(rng, 8, MLPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m.OutputSize() != 2 {
		t.Fatalf("default classes = %d", m.OutputSize())
	}
	if len(m.Params()) != 6 {
		t.Fatalf("default MLP params = %d, want 6 (3 dense layers)", len(m.Params()))
	}
	sub, err := NewSubstituteMLP(rng, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sub.OutputSize() != 2 {
		t.Fatalf("substitute classes = %d", sub.OutputSize())
	}
}

func TestBatchSizeIndependence(t *testing.T) {
	// Predicting a batch must equal predicting rows one by one.
	rng := rand.New(rand.NewSource(54))
	m, err := NewLSTMClassifier(rng, 2, LSTMConfig{Hidden1: 4, Hidden2: 3, Steps: 3})
	if err != nil {
		t.Fatal(err)
	}
	x := mat.RandNormal(rng, 5, 6, 1)
	batch, err := predict(m, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		row, err := mat.FromSlice(1, 6, append([]float64(nil), x.Row(i)...))
		if err != nil {
			t.Fatal(err)
		}
		single, err := predict(m, row)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 2; j++ {
			if math.Abs(single.At(0, j)-batch.At(i, j)) > 1e-9 {
				t.Fatalf("row %d class %d: single %v vs batch %v", i, j, single.At(0, j), batch.At(i, j))
			}
		}
	}
}

func TestAdamWeightDecayShrinksWeights(t *testing.T) {
	// With zero gradients, decoupled decay must shrink weights toward zero;
	// without it they must stay put.
	run := func(decay float64) float64 {
		w, err := mat.FromSlice(1, 2, []float64{4, -4})
		if err != nil {
			t.Fatal(err)
		}
		p := newParam("w", w)
		opt := NewAdam(0.1)
		opt.WeightDecay = decay
		for i := 0; i < 100; i++ {
			p.G.Zero()
			if err := opt.Step([]*Param{p}); err != nil {
				t.Fatal(err)
			}
		}
		return p.W.MaxAbs()
	}
	if got := run(0); got != 4 {
		t.Fatalf("no-decay weights moved: %v", got)
	}
	if got := run(0.1); got >= 2 {
		t.Fatalf("decay did not shrink weights: %v", got)
	}
}
