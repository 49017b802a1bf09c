package nn

import (
	"math"
	"testing"

	"repro/internal/mat"
)

func quadParam(t *testing.T, vals []float64) *Param {
	t.Helper()
	w, err := mat.FromSlice(1, len(vals), append([]float64(nil), vals...))
	if err != nil {
		t.Fatal(err)
	}
	return newParam("w", w)
}

// TestSGDLiteralLazyInit is the regression test for the nil-map panic: an
// &SGD{...} literal must work and follow heavy-ball momentum exactly.
func TestSGDLiteralLazyInit(t *testing.T) {
	p := quadParam(t, []float64{3, -2})
	s := &SGD{LR: 0.1, Momentum: 0.9}
	for i := 0; i < 4; i++ {
		p.G.Zero()
		if err := p.G.AddScaled(2, p.W); err != nil {
			t.Fatal(err)
		}
		if err := s.Step([]*Param{p}); err != nil { // used to panic on s.velocity[p]
			t.Fatalf("Step: %v", err)
		}
	}
	// Reference: v ← μ·v − η·g, w ← w + v, on the gradient g = 2w.
	want, v := []float64{3, -2}, make([]float64, 2)
	for i := 0; i < 4; i++ {
		for j := range want {
			v[j] = 0.9*v[j] - 0.1*2*want[j]
			want[j] += v[j]
		}
	}
	for j, w := range p.W.Data() {
		if math.Abs(w-want[j]) > 1e-12 {
			t.Fatalf("literal SGD = %v, want %v", p.W.Data(), want)
		}
	}
}

// TestAdamLiteralLazyInit: the flattened-state Adam must likewise work from
// a struct literal.
func TestAdamLiteralLazyInit(t *testing.T) {
	p := quadParam(t, []float64{1})
	p.G.Set(0, 0, 0.5)
	a := &Adam{LR: 0.1, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
	if err := a.Step([]*Param{p}); err != nil {
		t.Fatalf("Step: %v", err)
	}
	if p.W.At(0, 0) >= 1 {
		t.Fatalf("literal Adam did not update the weight: %v", p.W.At(0, 0))
	}
}

// TestAdamWDecayUsesPreStepWeight pins the AdamW update arithmetic per
// Loshchilov & Hutter: θ ← θ − lr·m̂/(√v̂+ε) − lr·λ·θ_pre, with the decay
// term computed from the PRE-step weight. The old code decayed the
// already-updated weight, coupling the decay to the gradient step.
func TestAdamWDecayUsesPreStepWeight(t *testing.T) {
	const (
		lr, beta1, beta2, eps = 0.5, 0.9, 0.999, 1e-8
		wd                    = 0.1
		w0, g                 = 2.0, 1.0
	)
	p := quadParam(t, []float64{w0})
	p.G.Set(0, 0, g)
	a := NewAdam(lr)
	a.WeightDecay = wd
	if err := a.Step([]*Param{p}); err != nil {
		t.Fatalf("Step: %v", err)
	}

	// Expected update, mirroring the documented formula exactly (t=1).
	m := (1 - beta1) * g
	v := (1 - beta2) * g * g
	mHat := m / (1 - beta1) // bias correction at t=1
	vHat := v / (1 - beta2)
	adamStep := lr * mHat / (math.Sqrt(vHat) + eps)
	want := w0 - adamStep - lr*wd*w0

	got := p.W.At(0, 0)
	if got != want {
		t.Fatalf("AdamW step = %v, want %v", got, want)
	}
	// The buggy ordering (decay applied to the post-step weight) must not
	// be what we compute — pin that the fix actually changed the value.
	buggy := (w0 - adamStep) * (1 - lr*wd)
	if got == buggy {
		t.Fatalf("AdamW still decays the post-step weight: %v", got)
	}
}
