package nn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/mat"
	"repro/internal/sweep"
)

func testModels(t *testing.T) map[string]*Model {
	t.Helper()
	rng := rand.New(rand.NewSource(8))
	mlp, err := NewMLPClassifier(rng, 8, MLPConfig{Hidden1: 16, Hidden2: 8})
	if err != nil {
		t.Fatal(err)
	}
	lstm, err := NewLSTMClassifier(rng, 6, LSTMConfig{Hidden1: 8, Hidden2: 4, Steps: 3})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Model{"mlp": mlp, "lstm": lstm}
}

// TestInferMatchesForward pins the contract of the inference path: identical
// numbers to Forward, bit for bit, with no backward state recorded. The
// LSTM stacks cover a last layer that emits the whole sequence and one that
// emits the final hidden state, at batch sizes from one row up. The "nonfinite" batch holds NaN, ±Inf and
// −0, alone in a row and mixed with finite values: both paths must agree on
// them too (ReLU maps NaN to 0 in Forward, so Infer must as well).
func TestInferMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	models := testModels(t)
	lstmSeq, err := NewModel(3*5, nil, NewLSTM(rng, 5, 6, 3, true), NewDense(rng, 3*6, 2))
	if err != nil {
		t.Fatal(err)
	}
	models["lstm_seq"] = lstmSeq
	lstmLast, err := NewModel(4*5, nil, NewLSTM(rng, 5, 6, 4, false), NewDense(rng, 6, 2))
	if err != nil {
		t.Fatal(err)
	}
	models["lstm_last"] = lstmLast
	mlpReLU, err := NewModel(6, nil, NewDense(rng, 6, 10), NewReLU(), NewDense(rng, 10, 4))
	if err != nil {
		t.Fatal(err)
	}
	models["mlp_relu"] = mlpReLU
	for name, m := range models {
		batches := map[string]*mat.Matrix{
			"nonfinite": nonFiniteBatch(rng, m.InputSize()),
		}
		for _, batch := range []int{1, 7, 32} {
			batches[fmt.Sprintf("batch=%d", batch)] = mat.RandNormal(rng, batch, m.InputSize(), 1)
		}
		for bname, x := range batches {
			fwd, err := m.Forward(x)
			if err != nil {
				t.Fatalf("%s forward: %v", name, err)
			}
			inf, err := m.Infer(x)
			if err != nil {
				t.Fatalf("%s infer: %v", name, err)
			}
			if !bytes.Equal(matBytes(fwd), matBytes(inf)) {
				t.Fatalf("%s %s: Infer logits differ from Forward\nforward %v\ninfer   %v",
					name, bname, fwd.Data(), inf.Data())
			}
		}
	}
}

// nonFiniteBatch returns, for each of NaN, +Inf, −Inf and −0, one row
// holding only that value and one row holding it in every third column
// between normal draws, plus a finite control row.
func nonFiniteBatch(rng *rand.Rand, cols int) *mat.Matrix {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	x := mat.RandNormal(rng, 2*len(specials)+1, cols, 1)
	for k, v := range specials {
		for j := 0; j < cols; j++ {
			x.Set(2*k, j, v)
			if j%3 == 0 {
				x.Set(2*k+1, j, v)
			}
		}
	}
	return x
}

// matBytes serializes m's shape and elements bit-exactly, so comparisons
// distinguish -0 from +0 and every NaN payload.
func matBytes(m *mat.Matrix) []byte {
	out := binary.LittleEndian.AppendUint64(nil, uint64(m.Rows()))
	out = binary.LittleEndian.AppendUint64(out, uint64(m.Cols()))
	for _, v := range m.Data() {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// TestLSTMInferAllocsIndependentOfSteps pins the per-call workspace of
// Model.Infer on an LSTM model: its allocations are fixed per call, so
// quadrupling the unroll length at a fixed batch must not add any.
func TestLSTMInferAllocsIndependentOfSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, returnSeqs := range []bool{true, false} {
		allocs := func(steps int) float64 {
			l := NewLSTM(rng, 5, 8, steps, returnSeqs)
			out, err := l.OutputSize(steps * 5)
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewModel(steps*5, nil, l, NewDense(rng, out, 2))
			if err != nil {
				t.Fatal(err)
			}
			x := mat.RandNormal(rng, 16, steps*5, 1)
			return testing.AllocsPerRun(10, func() {
				if _, err := m.Infer(x); err != nil {
					t.Fatal(err)
				}
			})
		}
		if a3, a12 := allocs(3), allocs(12); a12 > a3 {
			t.Fatalf("returnSeqs=%v: %v allocs at 12 steps vs %v at 3, want no growth", returnSeqs, a12, a3)
		}
	}
}

// TestConcurrentInference hammers a shared model from many goroutines; run
// under -race this is the proof that the inference path records no state.
func TestConcurrentInference(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for name, m := range testModels(t) {
		x := mat.RandNormal(rng, 16, m.InputSize(), 1)
		want, err := m.PredictClasses(x)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, 8)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for rep := 0; rep < 20; rep++ {
					got, err := m.PredictClasses(x)
					if err != nil {
						errs[w] = err
						return
					}
					for i := range got {
						if got[i] != want[i] {
							t.Errorf("%s worker %d: prediction drifted", name, w)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCloneIsIndependent checks that gradient work on a clone leaves the
// original untouched — the property parallel FGSM cells rely on.
func TestCloneIsIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for name, m := range testModels(t) {
		x := mat.RandNormal(rng, 12, m.InputSize(), 1)
		labels := make([]int, 12)
		for i := range labels {
			labels[i] = i % 2
		}
		before, err := m.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		clone, err := m.Clone()
		if err != nil {
			t.Fatalf("%s clone: %v", name, err)
		}
		cloneOut, err := clone.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		if !mat.Equal(before, cloneOut, 0) {
			t.Fatalf("%s: clone predicts differently", name)
		}
		// Train the clone; the original's weights and outputs must not move.
		opt := NewAdam(0.05)
		for step := 0; step < 3; step++ {
			if _, err := clone.TrainBatch(x, labels, nil, opt); err != nil {
				t.Fatal(err)
			}
		}
		after, err := m.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		if !mat.Equal(before, after, 0) {
			t.Fatalf("%s: training a clone mutated the original", name)
		}
		changed, err := clone.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		if mat.Equal(before, changed, 0) {
			t.Fatalf("%s: training the clone had no effect (shared weights?)", name)
		}
	}
}

// TestConcurrentInputGradientOnClones runs FGSM-style gradient passes on
// per-goroutine clones of one model; under -race this validates the
// clone-per-cell pattern of the experiment sweeps.
func TestConcurrentInputGradientOnClones(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for name, m := range testModels(t) {
		x := mat.RandNormal(rng, 10, m.InputSize(), 1)
		labels := make([]int, 10)
		for i := range labels {
			labels[i] = i % 2
		}
		ref, err := m.Clone()
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.InputGradient(x, labels, nil)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 6; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				clone, err := m.Clone()
				if err != nil {
					t.Error(err)
					return
				}
				got, err := clone.InputGradient(x, labels, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if !mat.Equal(want, got, 0) {
					t.Errorf("%s: clone gradient differs", name)
				}
			}()
		}
		wg.Wait()
	}
}

// trainerSnapshot runs steps optimization steps through a Trainer at the
// given worker count and returns deep copies of the resulting weights.
func trainerSnapshot(t *testing.T, build func(t *testing.T) *Model, workers, steps int) []*mat.Matrix {
	t.Helper()
	m := build(t)
	tr := NewTrainer(m, NewAdam(0.01), workers)
	rng := rand.New(rand.NewSource(21))
	const n = 100
	x := mat.RandNormal(rng, n, m.InputSize(), 1)
	labels := make([]int, n)
	know := make([]float64, n)
	for i := range labels {
		labels[i] = i % 2
		know[i] = float64((i / 3) % 2)
	}
	for s := 0; s < steps; s++ {
		if _, err := tr.Step(x, labels, know); err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
	}
	var ws []*mat.Matrix
	for _, p := range m.Params() {
		ws = append(ws, p.W.Clone())
	}
	return ws
}

// TestTrainerDeterministicAcrossWorkers pins the tentpole contract of the
// data-parallel trainer: weights after training are byte-identical at every
// worker count, because the batch is always cut into the same fixed 32-row
// blocks and per-block gradients reduce in block order.
func TestTrainerDeterministicAcrossWorkers(t *testing.T) {
	sweep.SetBudget(8)
	defer sweep.SetBudget(0)
	builders := map[string]func(t *testing.T) *Model{
		"mlp": func(t *testing.T) *Model {
			rng := rand.New(rand.NewSource(8))
			m, err := NewMLPClassifier(rng, 8, MLPConfig{Hidden1: 16, Hidden2: 8})
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
		"lstm-semantic": func(t *testing.T) *Model {
			rng := rand.New(rand.NewSource(9))
			m, err := NewLSTMClassifier(rng, 6, LSTMConfig{
				Hidden1: 8, Hidden2: 4, Steps: 3,
				Loss: SemanticLoss{Weight: 0.5, UnsafeClass: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
	}
	for name, build := range builders {
		ref := trainerSnapshot(t, build, 1, 4)
		for _, workers := range []int{2, 4, 8} {
			got := trainerSnapshot(t, build, workers, 4)
			for i := range ref {
				if !mat.Equal(ref[i], got[i], 0) {
					t.Fatalf("%s: weights differ between workers=1 and workers=%d (param %d)", name, workers, i)
				}
			}
		}
	}
}

// TestTrainerBudgetDrainedMatchesGranted: the shards a step actually runs
// depend on the tokens free when it starts, never its weights. The same
// four-worker trainer runs once with the whole budget free and once while
// the other ranges of an enclosing sweep.Ranges hold every token, and both
// match the one-worker reference bit for bit.
func TestTrainerBudgetDrainedMatchesGranted(t *testing.T) {
	sweep.SetBudget(3)
	defer sweep.SetBudget(0)
	build := func(t *testing.T) *Model {
		rng := rand.New(rand.NewSource(9))
		m, err := NewLSTMClassifier(rng, 6, LSTMConfig{Hidden1: 8, Hidden2: 4, Steps: 3})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ref := trainerSnapshot(t, build, 1, 4)
	granted := trainerSnapshot(t, build, 4, 4)
	var drained []*mat.Matrix
	release := make(chan struct{})
	sweep.Ranges(4, 4, func(w, _, _ int) {
		if w > 0 {
			<-release
			return
		}
		defer close(release)
		drained = trainerSnapshot(t, build, 4, 4)
	})
	for i := range ref {
		if !mat.Equal(ref[i], granted[i], 0) {
			t.Fatalf("param %d: granted budget changed the weights", i)
		}
		if !mat.Equal(ref[i], drained[i], 0) {
			t.Fatalf("param %d: drained budget changed the weights", i)
		}
	}
}

// TestTrainerSingleBlockMatchesTrainBatch pins the blocked trainer to the
// classic whole-batch path: a batch of exactly one block must reproduce the
// TrainBatch weight trajectory bit for bit.
func TestTrainerSingleBlockMatchesTrainBatch(t *testing.T) {
	build := func() *Model {
		rng := rand.New(rand.NewSource(13))
		m, err := NewMLPClassifier(rng, 5, MLPConfig{Hidden1: 12, Hidden2: 6})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	rng := rand.New(rand.NewSource(14))
	const n = 32 // exactly trainBlockRows
	x := mat.RandNormal(rng, n, 5, 1)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % 2
	}
	classic := build()
	opt1 := NewAdam(0.01)
	for s := 0; s < 5; s++ {
		if _, err := classic.TrainBatch(x, labels, nil, opt1); err != nil {
			t.Fatal(err)
		}
	}
	blocked := build()
	tr := NewTrainer(blocked, NewAdam(0.01), 1)
	for s := 0; s < 5; s++ {
		if _, err := tr.Step(x, labels, nil); err != nil {
			t.Fatal(err)
		}
	}
	cp, bp := classic.Params(), blocked.Params()
	for i := range cp {
		if !mat.Equal(cp[i].W, bp[i].W, 0) {
			t.Fatalf("param %q: blocked trainer diverged from TrainBatch on a single block", cp[i].Name)
		}
	}
}

// TestReplicateSharesWeights checks the shard contract: replicas see weight
// updates on the original instantly (shared W) but keep gradients private.
func TestReplicateSharesWeights(t *testing.T) {
	for name, m := range testModels(t) {
		rep, err := m.Replicate()
		if err != nil {
			t.Fatalf("%s replicate: %v", name, err)
		}
		mp, rp := m.Params(), rep.Params()
		if len(mp) != len(rp) {
			t.Fatalf("%s: param count differs", name)
		}
		for i := range mp {
			if mp[i].W != rp[i].W {
				t.Fatalf("%s: replica param %q does not share weights", name, mp[i].Name)
			}
			if mp[i].G == rp[i].G {
				t.Fatalf("%s: replica param %q shares the gradient accumulator", name, mp[i].Name)
			}
		}
	}
}

// TestScratchReuseMatchesFreshReplica pins the grow-only training scratch:
// one replica run at batch sizes that shrink, grow past every earlier size
// and shrink again must give, on every call, the input gradient and the
// parameter gradients of a fresh replica bit for bit. A view left pointing
// at an earlier batch, or a step-0 state that is not zero after a buffer
// grows, fails here.
func TestScratchReuseMatchesFreshReplica(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for name, m := range testModels(t) {
		reused, err := m.Replicate()
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range []int{32, 5, 64, 5, 32} {
			x := mat.RandNormal(rng, batch, m.InputSize(), 1)
			labels := make([]int, batch)
			for i := range labels {
				labels[i] = rng.Intn(2)
			}
			fresh, err := m.Replicate()
			if err != nil {
				t.Fatal(err)
			}
			for _, pair := range [][2][]byte{
				{inputGradBits(t, reused, x, labels), inputGradBits(t, fresh, x, labels)},
				{paramGradBits(t, reused, x, labels), paramGradBits(t, fresh, x, labels)},
			} {
				if !bytes.Equal(pair[0], pair[1]) {
					t.Fatalf("%s batch %d: reused scratch gives other gradients than a fresh replica", name, batch)
				}
			}
		}
	}
}

// inputGradBits returns the bits of m.InputGradient(x, labels).
func inputGradBits(t *testing.T, m *Model, x *mat.Matrix, labels []int) []byte {
	t.Helper()
	g, err := m.InputGradient(x, labels, nil)
	if err != nil {
		t.Fatal(err)
	}
	return matBytes(g)
}

// paramGradBits runs a training step's forward and backward, without the
// optimizer step, and returns the bits of every parameter gradient.
func paramGradBits(t *testing.T, m *Model, x *mat.Matrix, labels []int) []byte {
	t.Helper()
	logits, err := m.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	_, gradLogits, err := m.loss.Compute(logits, labels, nil)
	if err != nil {
		t.Fatal(err)
	}
	ZeroGrads(m.Params())
	if _, err := m.backward(gradLogits, false, true); err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, p := range m.Params() {
		out = append(out, matBytes(p.G)...)
	}
	return out
}
