package mat

import (
	"math"
	"math/rand"
)

// RandUniform returns a rows×cols matrix with entries drawn uniformly from
// [-scale, scale) using rng.
func RandUniform(rng *rand.Rand, rows, cols int, scale float64) *Matrix {
	m := New(rows, cols)
	for i := range m.data {
		m.data[i] = (rng.Float64()*2 - 1) * scale
	}
	return m
}

// RandNormal returns a rows×cols matrix with N(0, std²) entries using rng.
//
//apslint:allow reach test seam: the seeded Gaussian inputs of the mat, nn and monitor tests
func RandNormal(rng *rand.Rand, rows, cols int, std float64) *Matrix {
	m := New(rows, cols)
	for i := range m.data {
		m.data[i] = rng.NormFloat64() * std
	}
	return m
}

// GlorotUniform returns a rows×cols matrix initialized with the Glorot/Xavier
// uniform scheme for a layer with fanIn inputs and fanOut outputs.
func GlorotUniform(rng *rand.Rand, rows, cols, fanIn, fanOut int) *Matrix {
	var limit float64
	if fanIn+fanOut > 0 {
		limit = math.Sqrt(6.0 / float64(fanIn+fanOut))
	}
	return RandUniform(rng, rows, cols, limit)
}

// Orthogonal-ish recurrent initialization: scaled uniform, a pragmatic
// stand-in for orthogonal init that keeps recurrent dynamics stable.
func RecurrentUniform(rng *rand.Rand, rows, cols int) *Matrix {
	var limit float64
	if rows > 0 {
		limit = math.Sqrt(1.0 / float64(rows))
	}
	return RandUniform(rng, rows, cols, limit)
}
