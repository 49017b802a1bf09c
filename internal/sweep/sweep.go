// Package sweep is the shared grid-execution engine for the experiment
// campaigns. The paper's artifacts (Figs 5-10, Table III) are grids of
// independent cells — simulator × monitor × perturbation level — so the
// package provides:
//
//   - Ranges, the one goroutine launch, which splits an index range over
//     the workers the shared budget grants, and Map, an executor built on
//     it that fans an indexed job set out and returns results in index
//     order, so parallel output is byte-identical to serial output;
//   - Grid, a row-major multi-index so callers can declare a sweep by its
//     dimension sizes and recover per-cell coordinates from the flat index;
//   - CellSeed/Derive, a splitmix64-style hash that derives one independent,
//     collision-free RNG seed per cell from (baseSeed, cellIndex), making
//     every cell's randomness a pure function of its identity rather than of
//     execution order.
package sweep

import (
	"fmt"
	"sync/atomic"
)

// splitmix64 is the SplitMix64 finalizer: a bijective avalanche mix over
// uint64. Because it is a bijection, distinct inputs always produce distinct
// outputs — the property CellSeed relies on for collision freedom.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Derive mixes a tag into a base seed, giving experiments that share one
// config seed disjoint seed streams. Derive(base, t1) and Derive(base, t2)
// collide only if t1 == t2.
func Derive(base, tag int64) int64 {
	return int64(splitmix64(uint64(base)) ^ splitmix64(splitmix64(uint64(tag))))
}

// CellSeed derives the RNG seed of grid cell index from a base seed. For a
// fixed base the map index → seed is injective (a bijection composed with an
// XOR), so no two cells of a sweep ever share a seed, and the seed depends
// only on (base, index) — not on grid shape, worker count, or execution
// order.
func CellSeed(base int64, index int) int64 {
	return int64(splitmix64(splitmix64(uint64(base)) + uint64(index)))
}

// Map runs fn(i) for every i in [0, n) on up to workers goroutines
// launched by Ranges (so the shared worker budget clamps the fan-out) and
// returns the n results in index order. workers <= 0 selects
// runtime.GOMAXPROCS(0). Each worker pulls the next unclaimed index from
// one shared counter, so cells start in index order.
//
// Results are slotted by index, so for error-free runs the returned slice is
// identical regardless of worker count. Once a job fails no worker claims a
// new index, and Map returns the error of the lowest failing index: every
// lower index was claimed before it, so that error too is independent of
// scheduling. With one worker the jobs run in order and stop at the first
// failure.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	Ranges(n, workers, func(_, _, _ int) {
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if out[i], errs[i] = fn(i); errs[i] != nil {
				failed.Store(true)
			}
		}
	})
	if failed.Load() {
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("sweep: cell %d: %w", i, err)
			}
		}
	}
	return out, nil
}

// Grid is a row-major multi-index over the cross product of dimension sizes:
// the last dimension varies fastest, as in nested loops.
type Grid struct {
	dims []int
	size int
}

// NewGrid builds a grid from dimension sizes. A zero or negative dimension
// yields an empty grid.
func NewGrid(dims ...int) Grid {
	size := 1
	for _, d := range dims {
		if d <= 0 {
			size = 0
			break
		}
		size *= d
	}
	return Grid{dims: append([]int(nil), dims...), size: size}
}

// Size returns the total number of cells.
func (g Grid) Size() int { return g.size }

// Coords returns the per-dimension coordinates of flat cell index.
func (g Grid) Coords(index int) []int {
	out := make([]int, len(g.dims))
	for d := len(g.dims) - 1; d >= 0; d-- {
		out[d] = index % g.dims[d]
		index /= g.dims[d]
	}
	return out
}

// Index returns the flat cell index of the given coordinates.
func (g Grid) Index(coords ...int) int {
	idx := 0
	for d, c := range coords {
		idx = idx*g.dims[d] + c
	}
	return idx
}
