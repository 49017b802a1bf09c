package experiments

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/sweep"
)

// Seed-stream tags: every experiment that draws randomness derives its cell
// seeds from sweep.Derive(cfg.Seed, tag), so experiments sharing one config
// seed consume disjoint, collision-free seed streams. Values are arbitrary
// but frozen — changing one changes that experiment's published numbers.
const (
	tagTable3 = 3
	tagFig4   = 4
	tagFig5   = 5
	tagFig6   = 6
	tagFig8   = 8
	tagFig9   = 9
	// tagFig9FGSM keeps the FGSM heatmap's stream disjoint from the Gaussian
	// one: FGSM cells ignore their seeds today, but the first seeded addition
	// (e.g. PGD random starts) must not correlate with Fig 9's noise draws.
	tagFig9FGSM = 19
	tagFig10    = 10
	tagEvasion  = 21
	// tagReport seeds the per-scenario report sweep. Evaluation draws no
	// randomness today, but the stream is reserved so a seeded addition
	// (e.g. bootstrap confidence intervals) cannot correlate with the
	// figure sweeps.
	tagReport = 30
)

// GridCell is one evaluation point of a sim × monitor × level sweep. Seed is
// a deterministic function of (config seed, experiment tag, cell index) —
// never of execution order — which is what makes parallel sweep output
// byte-identical to serial.
type GridCell struct {
	Sim     dataset.Simulator
	SA      *SimAssets
	Monitor string
	// Level is the perturbation magnitude (σ or ε); zero in pair sweeps
	// (pairLevel), which have no level axis. LevelIndex is its position on
	// the level axis.
	Level      float64
	LevelIndex int
	Seed       int64
}

// gridSpec declares a sim × monitor × level sweep over the shared executor.
type gridSpec[T any] struct {
	// sims restricts the simulator axis (nil = both case studies).
	sims     []dataset.Simulator
	monitors []string
	levels   []float64
	// tag separates this experiment's seed stream from the others'.
	tag int64
	// eval computes one cell. It runs concurrently with other cells and must
	// only read shared assets (or go through their concurrency-safe lazy
	// accessors).
	eval func(c *GridCell) (T, error)
}

// runGrid fans the grid out across Workers() goroutines and returns
// out[simulator][monitor] series aligned with spec.levels.
func runGrid[T any](a *Assets, spec gridSpec[T]) (map[string]map[string][]T, error) {
	sims := spec.sims
	if sims == nil {
		sims = Simulators
	}
	g := sweep.NewGrid(len(sims), len(spec.monitors), len(spec.levels))
	base := sweep.Derive(a.Config.Seed, spec.tag)
	vals, err := sweep.Map(Workers(), g.Size(), func(i int) (T, error) {
		co := g.Coords(i)
		simu := sims[co[0]]
		c := &GridCell{
			Sim:        simu,
			SA:         a.Sims[simu],
			Monitor:    spec.monitors[co[1]],
			Level:      spec.levels[co[2]],
			LevelIndex: co[2],
			Seed:       sweep.CellSeed(base, i),
		}
		return spec.eval(c)
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[string][]T, len(sims))
	for si, simu := range sims {
		rows := make(map[string][]T, len(spec.monitors))
		for mi, name := range spec.monitors {
			series := make([]T, len(spec.levels))
			for li := range spec.levels {
				series[li] = vals[g.Index(si, mi, li)]
			}
			rows[name] = series
		}
		out[simu.String()] = rows
	}
	return out, nil
}

// pairLevel is the one zero level of a simulator × monitor sweep, which
// has no level axis. Its flat cell index (si·M+mi)·1+0 is the pair's own,
// so its cell seeds are those of a two-dimensional grid.
var pairLevel = []float64{0}

// pairValues lists a pairLevel runGrid result in (simulator, monitor)
// order.
func pairValues[T any](grid map[string]map[string][]T, monitors []string) []T {
	out := make([]T, 0, len(Simulators)*len(monitors))
	for _, simu := range Simulators {
		for _, name := range monitors {
			out = append(out, grid[simu.String()][name][0])
		}
	}
	return out
}

// cellErr annotates a cell failure with its grid coordinates.
func cellErr(exp string, c *GridCell, err error) error {
	return fmt.Errorf("%s: %s on %v level=%v: %w", exp, c.Monitor, c.Sim, c.Level, err)
}
