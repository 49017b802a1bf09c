package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Renderer is any experiment result that can print itself.
type Renderer interface {
	Render() string
}

// Registry maps experiment IDs to their runners.
var Registry = map[string]func(*Assets) (Renderer, error){
	"table3": func(a *Assets) (Renderer, error) { return wrap(Table3(a)) },
	"fig1b":  func(a *Assets) (Renderer, error) { return wrap(Fig1b(a)) },
	"fig2":   func(a *Assets) (Renderer, error) { return wrap(Fig2(a)) },
	"fig3":   func(a *Assets) (Renderer, error) { return wrap(Fig3(a)) },
	"fig4":   func(a *Assets) (Renderer, error) { return wrap(Fig4(a)) },
	"fig5":   func(a *Assets) (Renderer, error) { return wrap(Fig5(a)) },
	"fig6":   func(a *Assets) (Renderer, error) { return wrap(Fig6(a)) },
	"fig7":   func(a *Assets) (Renderer, error) { return wrap(Fig7(a)) },
	"fig8":   func(a *Assets) (Renderer, error) { return wrap(Fig8(a)) },
	"fig9":   func(a *Assets) (Renderer, error) { return wrap(Fig9Both(a)) },
	"fig10":  func(a *Assets) (Renderer, error) { return wrap(Fig10(a)) },
	// Extension beyond the paper's figures: verifies the §III premise that
	// the studied perturbations evade classical change detection.
	"evasion": func(a *Assets) (Renderer, error) { return wrap(Evasion(a)) },
}

func wrap[T Renderer](r T, err error) (Renderer, error) {
	if err != nil {
		return nil, err
	}
	return r, nil
}

// experimentOrder is the canonical run order: the paper's artifacts first
// (Table III, then the figures in number order), extensions last. Every
// entry must exist in Registry — TestValidateRegistry enforces the invariant.
var experimentOrder = []string{
	"table3", "fig1b", "fig2", "fig3", "fig4", "fig5", "fig6",
	"fig7", "fig8", "fig9", "fig10", "evasion",
}

// ExperimentIDs lists the registry keys in run order: the explicit
// experimentOrder entries first, then any registry keys missing from the
// order (e.g. experiments registered by tests) sorted lexically so the
// result is deterministic either way.
func ExperimentIDs() []string {
	ids := make([]string, 0, len(Registry))
	seen := make(map[string]bool, len(experimentOrder))
	for _, id := range experimentOrder {
		if _, ok := Registry[id]; ok {
			ids = append(ids, id)
			seen[id] = true
		}
	}
	var extra []string
	for id := range Registry {
		if !seen[id] {
			extra = append(extra, id)
		}
	}
	sort.Strings(extra)
	return append(ids, extra...)
}

// Fig9BothResult pairs the two Fig. 9 heatmaps.
type Fig9BothResult struct {
	Gaussian *HeatmapResult
	FGSM     *HeatmapResult
}

// Fig9Both computes both heatmaps of Fig. 9.
func Fig9Both(a *Assets) (*Fig9BothResult, error) {
	g, err := Fig9Gaussian(a)
	if err != nil {
		return nil, err
	}
	f, err := Fig9FGSM(a)
	if err != nil {
		return nil, err
	}
	return &Fig9BothResult{Gaussian: g, FGSM: f}, nil
}

// Render formats both heatmaps.
func (r *Fig9BothResult) Render() string {
	return "Fig 9:\n" + r.Gaussian.Render() + "\n" + r.FGSM.Render()
}

// Run executes one experiment by ID and writes its rendering to w.
func Run(id string, a *Assets, w io.Writer) error {
	fn, ok := Registry[id]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, ExperimentIDs())
	}
	res, err := fn(a)
	if err != nil {
		return fmt.Errorf("experiments: %s: %w", id, err)
	}
	if _, err := io.WriteString(w, res.Render()+"\n"); err != nil {
		return fmt.Errorf("experiments: write %s: %w", id, err)
	}
	return nil
}
