// Package stl implements a Signal Temporal Logic engine over discretely
// sampled multivariate traces: a formula AST with boolean satisfaction and
// quantitative (robustness-degree) semantics, a concrete-syntax parser, and
// the context-dependent APS safety specifications of Table I of the paper.
package stl

import (
	"fmt"
	"strings"
)

// SummaryFormatVersion identifies the cached encoding of stlcheck's -all
// summary (artifact kind "stlsummary"). Bump it whenever the rendered
// summary or the evaluation semantics change: stale entries then become
// unreachable, are re-evaluated, and -cache-prune reclaims them.
const SummaryFormatVersion = 1

// Trace supplies named scalar signals sampled at discrete steps.
type Trace interface {
	// Value returns the signal sample at step, and whether it exists.
	Value(signal string, step int) (float64, bool)
	// Len returns the number of steps.
	Len() int
}

// MapTrace is a Trace backed by equal-length sample slices.
type MapTrace struct {
	Signals map[string][]float64
}

var _ Trace = (*MapTrace)(nil)

// Value implements Trace.
func (m *MapTrace) Value(signal string, step int) (float64, bool) {
	s, ok := m.Signals[signal]
	if !ok || step < 0 || step >= len(s) {
		return 0, false
	}
	return s[step], true
}

// Len implements Trace.
func (m *MapTrace) Len() int {
	n := 0
	for _, s := range m.Signals {
		if len(s) > n {
			n = len(s)
		}
	}
	return n
}

// CmpOp is a comparison operator in an atomic predicate.
type CmpOp int

// Comparison operators.
const (
	OpGT CmpOp = iota + 1
	OpGE
	OpLT
	OpLE
	OpEQ
	OpNE
)

// String implements fmt.Stringer.
func (o CmpOp) String() string {
	switch o {
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpEQ:
		return "=="
	case OpNE:
		return "!="
	default:
		return fmt.Sprintf("CmpOp(%d)", int(o))
	}
}

// Formula is an STL formula node.
type Formula interface {
	fmt.Stringer
	// Eval returns boolean satisfaction at step.
	Eval(tr Trace, step int) (bool, error)
	// Robustness returns the quantitative satisfaction degree at step
	// (positive iff satisfied, with magnitude = distance to the boundary).
	Robustness(tr Trace, step int) (float64, error)
}

// Atom compares a signal sample against a constant threshold.
// Eps is the tolerance band for equality operators (OpEQ/OpNE); zero means
// exact comparison.
type Atom struct {
	Signal    string
	Op        CmpOp
	Threshold float64
	Eps       float64
}

var _ Formula = Atom{}

// String implements fmt.Stringer.
func (a Atom) String() string {
	return fmt.Sprintf("%s %s %s", a.Signal, a.Op, formatNum(a.Threshold))
}

func formatNum(v float64) string {
	s := fmt.Sprintf("%g", v)
	return s
}

// Eval implements Formula.
func (a Atom) Eval(tr Trace, step int) (bool, error) {
	r, err := a.Robustness(tr, step)
	if err != nil {
		return false, err
	}
	return r >= 0, nil
}

// Robustness implements Formula. For strict inequalities the degree is the
// signed margin; for equality it is eps − |x − c| so the formula holds
// within the tolerance band.
func (a Atom) Robustness(tr Trace, step int) (float64, error) {
	x, ok := tr.Value(a.Signal, step)
	if !ok {
		return 0, fmt.Errorf("stl: signal %q has no sample at step %d", a.Signal, step)
	}
	c := a.Threshold
	switch a.Op {
	case OpGT, OpGE:
		return x - c, nil
	case OpLT, OpLE:
		return c - x, nil
	case OpEQ:
		return a.Eps - abs(x-c), nil
	case OpNE:
		return abs(x-c) - a.Eps, nil
	default:
		return 0, fmt.Errorf("stl: unknown comparison operator %d", int(a.Op))
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Not negates a formula.
type Not struct{ F Formula }

var _ Formula = Not{}

// String implements fmt.Stringer.
func (n Not) String() string { return "!(" + n.F.String() + ")" }

// Eval implements Formula.
func (n Not) Eval(tr Trace, step int) (bool, error) {
	v, err := n.F.Eval(tr, step)
	return !v, err
}

// Robustness implements Formula.
func (n Not) Robustness(tr Trace, step int) (float64, error) {
	r, err := n.F.Robustness(tr, step)
	return -r, err
}

// And is conjunction over one or more operands.
type And struct{ Fs []Formula }

var _ Formula = And{}

// NewAnd builds a conjunction.
func NewAnd(fs ...Formula) And { return And{Fs: fs} }

// String implements fmt.Stringer.
func (a And) String() string { return joinFormulas(a.Fs, " & ") }

// Eval implements Formula.
func (a And) Eval(tr Trace, step int) (bool, error) {
	for _, f := range a.Fs {
		v, err := f.Eval(tr, step)
		if err != nil {
			return false, err
		}
		if !v {
			return false, nil
		}
	}
	return true, nil
}

// Robustness implements Formula (min semantics).
func (a And) Robustness(tr Trace, step int) (float64, error) {
	return fold(a.Fs, tr, step, false)
}

// Or is disjunction over one or more operands.
type Or struct{ Fs []Formula }

var _ Formula = Or{}

// String implements fmt.Stringer.
func (o Or) String() string { return joinFormulas(o.Fs, " | ") }

// Eval implements Formula.
func (o Or) Eval(tr Trace, step int) (bool, error) {
	for _, f := range o.Fs {
		v, err := f.Eval(tr, step)
		if err != nil {
			return false, err
		}
		if v {
			return true, nil
		}
	}
	return false, nil
}

// Robustness implements Formula (max semantics).
func (o Or) Robustness(tr Trace, step int) (float64, error) {
	return fold(o.Fs, tr, step, true)
}

// Implies is material implication L → R.
type Implies struct{ L, R Formula }

var _ Formula = Implies{}

// String implements fmt.Stringer.
func (i Implies) String() string {
	return "(" + i.L.String() + ") -> (" + i.R.String() + ")"
}

// Eval implements Formula.
func (i Implies) Eval(tr Trace, step int) (bool, error) {
	return Or{Fs: []Formula{Not{i.L}, i.R}}.Eval(tr, step)
}

// Robustness implements Formula.
func (i Implies) Robustness(tr Trace, step int) (float64, error) {
	return Or{Fs: []Formula{Not{i.L}, i.R}}.Robustness(tr, step)
}

func joinFormulas(fs []Formula, sep string) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = "(" + f.String() + ")"
	}
	return strings.Join(parts, sep)
}

func fold(fs []Formula, tr Trace, step int, max bool) (float64, error) {
	if len(fs) == 0 {
		return 0, fmt.Errorf("stl: empty operand list")
	}
	best, err := fs[0].Robustness(tr, step)
	if err != nil {
		return 0, err
	}
	for _, f := range fs[1:] {
		r, err := f.Robustness(tr, step)
		if err != nil {
			return 0, err
		}
		if (max && r > best) || (!max && r < best) {
			best = r
		}
	}
	return best, nil
}
