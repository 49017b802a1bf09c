package nn

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// Optimizer applies accumulated gradients to parameters.
type Optimizer interface {
	// Step updates every parameter from its gradient accumulator. Gradients
	// are not cleared; callers zero them between batches.
	Step(params []*Param) error
}

// SGD is plain stochastic gradient descent with optional momentum. The zero
// value (or a struct literal) is ready to use: per-parameter state is
// initialized lazily on the first Step.
type SGD struct {
	LR       float64
	Momentum float64

	velocity map[*Param]*mat.Matrix
}

var _ Optimizer = (*SGD)(nil)

// Step implements Optimizer.
func (s *SGD) Step(params []*Param) error {
	for _, p := range params {
		if s.Momentum == 0 {
			if err := p.W.AddScaled(-s.LR, p.G); err != nil {
				return fmt.Errorf("nn: sgd step %q: %w", p.Name, err)
			}
			continue
		}
		if s.velocity == nil {
			// Lazy init: the zero value and struct literals are ready to use.
			s.velocity = make(map[*Param]*mat.Matrix)
		}
		v, ok := s.velocity[p]
		if !ok {
			v = mat.New(p.W.Rows(), p.W.Cols())
			s.velocity[p] = v
		}
		v.Scale(s.Momentum)
		if err := v.AddScaled(-s.LR, p.G); err != nil {
			return fmt.Errorf("nn: sgd step %q: %w", p.Name, err)
		}
		if err := p.W.AddInPlace(v); err != nil {
			return fmt.Errorf("nn: sgd step %q: %w", p.Name, err)
		}
	}
	return nil
}

// Adam implements the Adam optimizer (Kingma & Ba) with bias correction,
// matching the paper's training setup (default learning rate 0.001).
// A non-zero WeightDecay applies decoupled decay (AdamW).
//
// The first and second moments live in two flat backing arrays shared by
// all parameters (one contiguous slice per parameter, assigned on first
// sight), so a step walks two dense buffers instead of chasing per-param
// heap objects. The zero value (or a struct literal) is ready to use.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	// WeightDecay is the decoupled L2 decay coefficient per step (AdamW);
	// zero disables.
	WeightDecay float64

	t       int
	offsets map[*Param]int
	m, v    []float64
}

var _ Optimizer = (*Adam)(nil)

// NewAdam constructs an Adam optimizer with the standard hyperparameters
// (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// stateFor returns the flat-moment slices for p, growing the backing arrays
// when p is seen for the first time.
func (a *Adam) stateFor(p *Param, n int) (m, v []float64) {
	if a.offsets == nil {
		a.offsets = make(map[*Param]int)
	}
	off, ok := a.offsets[p]
	if !ok {
		off = len(a.m)
		a.offsets[p] = off
		a.m = append(a.m, make([]float64, n)...)
		a.v = append(a.v, make([]float64, n)...)
	}
	return a.m[off : off+n], a.v[off : off+n]
}

// Step implements Optimizer.
func (a *Adam) Step(params []*Param) error {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		w, g := p.W.Data(), p.G.Data()
		if len(g) != len(w) {
			return fmt.Errorf("nn: adam step %q: grad/weight length mismatch", p.Name)
		}
		m, v := a.stateFor(p, len(w))
		for i, gi := range g {
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*gi
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*gi*gi
			mHat := m[i] / bc1
			vHat := v[i] / bc2
			wPre := w[i]
			w[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
			if a.WeightDecay > 0 {
				// Decoupled decay per Loshchilov & Hutter: θ ← θ − lr·λ·θ
				// computed from the PRE-step weight, so the decay direction
				// is independent of this step's Adam update.
				w[i] -= a.LR * a.WeightDecay * wPre
			}
		}
	}
	return nil
}
