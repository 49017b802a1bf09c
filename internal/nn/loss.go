package nn

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// Loss maps a batch of logits and integer class labels to a scalar loss and
// the gradient of that loss with respect to the logits.
//
// knowledge carries per-sample side information; it is ignored by plain
// losses and interpreted by SemanticLoss as the indicator I(⋁Φ_h) of Eq (2)
// in the paper (1 when the window's aggregated state satisfies at least one
// unsafe-control-action specification, else 0). Pass nil when unused.
type Loss interface {
	// Compute returns the mean loss over the batch and d(loss)/d(logits).
	Compute(logits *mat.Matrix, labels []int, knowledge []float64) (float64, *mat.Matrix, error)
	// LossName identifies the loss for serialization and reporting.
	LossName() string
	// computeN is Compute for logits that are a slice of an n-row batch:
	// the slice's share of the n-row mean loss, and the gradient of that
	// mean with respect to the slice's logits. Every row's gradient depends
	// on its own logits and n only, so the slices of a batch together give
	// Compute's gradient bit for bit. Compute is computeN(…, logits.Rows()).
	computeN(logits *mat.Matrix, labels []int, knowledge []float64, n int) (float64, *mat.Matrix, error)
}

// CrossEntropy is sparse categorical cross-entropy fused with softmax.
type CrossEntropy struct{}

var _ Loss = CrossEntropy{}

// LossName implements Loss.
func (CrossEntropy) LossName() string { return "cross_entropy" }

// Compute implements Loss.
func (c CrossEntropy) Compute(logits *mat.Matrix, labels []int, knowledge []float64) (float64, *mat.Matrix, error) {
	return c.computeN(logits, labels, knowledge, logits.Rows())
}

func (CrossEntropy) computeN(logits *mat.Matrix, labels []int, _ []float64, n int) (float64, *mat.Matrix, error) {
	probs, loss, err := softmaxCE(logits, labels, n)
	if err != nil {
		return 0, nil, err
	}
	// grad = (p − onehot) / n
	grad := probs
	for i, y := range labels {
		grad.Add(i, y, -1)
	}
	grad.Scale(1 / float64(n))
	return loss, grad, nil
}

// softmaxCE returns the softmax of logits and the rows' cross-entropy
// summed and divided by n.
func softmaxCE(logits *mat.Matrix, labels []int, n int) (*mat.Matrix, float64, error) {
	if len(labels) != logits.Rows() {
		return nil, 0, fmt.Errorf("nn: %d labels for %d logit rows", len(labels), logits.Rows())
	}
	for i, y := range labels {
		if y < 0 || y >= logits.Cols() {
			return nil, 0, fmt.Errorf("nn: label %d out of range [0,%d) at row %d", y, logits.Cols(), i)
		}
	}
	probs := Softmax(logits)
	var loss float64
	for i, y := range labels {
		p := probs.At(i, y)
		loss += -math.Log(math.Max(p, 1e-12))
	}
	return probs, loss / float64(n), nil
}

// SemanticLoss implements Eq (2) of the paper:
//
//	loss = loss_ex + w·|y_t − I(⋁Φ_h f(µ(X_t)) ⊨ Φ_h)|
//
// where loss_ex is the base data loss (cross-entropy here), y_t is the
// predicted probability of the unsafe class, and I is the indicator that the
// aggregated window satisfies any unsafe-control-action STL specification.
// The indicator values are supplied per sample through the knowledge slice.
type SemanticLoss struct {
	// Weight is w in Eq (2): how strongly domain knowledge penalizes
	// disagreement between prediction and specification.
	Weight float64
	// UnsafeClass is the class index whose probability is compared against
	// the indicator (class 1 = unsafe throughout this repo).
	UnsafeClass int
}

var _ Loss = SemanticLoss{}

// LossName implements Loss.
func (SemanticLoss) LossName() string { return "semantic" }

// Compute implements Loss.
func (s SemanticLoss) Compute(logits *mat.Matrix, labels []int, knowledge []float64) (float64, *mat.Matrix, error) {
	return s.computeN(logits, labels, knowledge, logits.Rows())
}

func (s SemanticLoss) computeN(logits *mat.Matrix, labels []int, knowledge []float64, batch int) (float64, *mat.Matrix, error) {
	if knowledge != nil && len(knowledge) != logits.Rows() {
		return 0, nil, fmt.Errorf("nn: %d knowledge indicators for %d rows", len(knowledge), logits.Rows())
	}
	if s.UnsafeClass < 0 || s.UnsafeClass >= logits.Cols() {
		return 0, nil, fmt.Errorf("nn: unsafe class %d out of range [0,%d)", s.UnsafeClass, logits.Cols())
	}
	probs, ceLoss, err := softmaxCE(logits, labels, batch)
	if err != nil {
		return 0, nil, err
	}
	n := float64(batch)
	// Start from the CE gradient, then add the semantic term.
	grad := probs.Clone()
	for i, y := range labels {
		grad.Add(i, y, -1)
	}

	loss := ceLoss
	if knowledge != nil && s.Weight != 0 {
		var semLoss float64
		u := s.UnsafeClass
		for i := 0; i < logits.Rows(); i++ {
			ind := knowledge[i]
			pu := probs.At(i, u)
			diff := pu - ind
			semLoss += math.Abs(diff)
			// d|pu − I|/dz_k = sign(pu − I) · pu · (δ_{uk} − p_k)
			sign := 0.0
			switch {
			case diff > 0:
				sign = 1
			case diff < 0:
				sign = -1
			}
			if sign == 0 {
				continue
			}
			c := s.Weight * sign * pu
			row := probs.Row(i)
			grow := grad.Row(i)
			for k, pk := range row {
				d := -pk
				if k == u {
					d += 1
				}
				grow[k] += c * d
			}
		}
		loss += s.Weight * semLoss / n
	}
	grad.Scale(1 / n)
	return loss, grad, nil
}
