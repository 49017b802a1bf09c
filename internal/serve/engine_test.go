package serve

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/sweep"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

const engineMaxBatch = 8

// engineCases are the call shapes of the serve classify closure: a lone
// row (a sparse upload, or a 1-row flush) and 3·MaxBatch+1 rows (a bypass
// request the closure splits into three full chunks and a 1-row tail).
var engineCases = []struct {
	name string
	rows int
}{{"1row", 1}, {"chunked", 3*engineMaxBatch + 1}}

// engineStacks freezes one small MLP into both stacks the server can run.
func engineStacks(t *testing.T) (*nn.InferModel[float32], *nn.InferModel[float64], int) {
	t.Helper()
	m, err := nn.NewMLPClassifier(rand.New(rand.NewSource(5)), 8, nn.MLPConfig{Hidden1: 16, Hidden2: 8})
	if err != nil {
		t.Fatal(err)
	}
	f32, err := m.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	f64, err := m.Stack()
	if err != nil {
		t.Fatal(err)
	}
	return f32, f64, m.InputSize()
}

func engineRows(rng *rand.Rand, n, width int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, width)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	return rows
}

// TestBatchClassifyMatchesClassifyInto pins the chunked closure to one
// ClassifyInto over the whole block, bitwise, at both precisions.
func TestBatchClassifyMatchesClassifyInto(t *testing.T) {
	f32, f64, width := engineStacks(t)
	rng := rand.New(rand.NewSource(9))
	for _, tc := range engineCases {
		rows := engineRows(rng, tc.rows, width)
		checkBatchClassify(t, tc.name+"/f32", f32, rows)
		checkBatchClassify(t, tc.name+"/f64", f64, rows)
	}
	classify := batchClassify(f32, engineMaxBatch)
	if err := classify([][]float64{make([]float64, width+1)}, make([]int, 1), make([]float64, 1)); err == nil {
		t.Fatal("want an error for a row of the wrong width")
	}
}

// TestBatchClassifyConcurrent runs one closure from several goroutines at
// once, as the dispatcher and inline bypass requests do: each call stages
// through its own pooled buffer, so every caller gets its own block's
// verdicts.
func TestBatchClassifyConcurrent(t *testing.T) {
	f32, _, width := engineStacks(t)
	classify := batchClassify(f32, engineMaxBatch)
	rng := rand.New(rand.NewSource(11))
	const callers = 4
	var blocks [callers][][]float64
	var wantConf [callers][]float64
	for g := range blocks {
		blocks[g] = engineRows(rng, 3*engineMaxBatch+1, width)
		wantConf[g] = make([]float64, len(blocks[g]))
		if err := classify(blocks[g], make([]int, len(blocks[g])), wantConf[g]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := range blocks {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			classes, conf := make([]int, len(blocks[g])), make([]float64, len(blocks[g]))
			for rep := 0; rep < 20; rep++ {
				if err := classify(blocks[g], classes, conf); err != nil {
					t.Error(err)
					return
				}
				for i, c := range conf {
					if math.Float64bits(c) != math.Float64bits(wantConf[g][i]) {
						t.Errorf("caller %d row %d: confidence %v, want %v", g, i, c, wantConf[g][i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func checkBatchClassify[T mat.Float](t *testing.T, name string, im *nn.InferModel[T], rows [][]float64) {
	t.Helper()
	x := mat.NewDense[T](len(rows), im.InputSize())
	for i, r := range rows {
		for j, v := range r {
			x.Set(i, j, T(v))
		}
	}
	wantClass, wantConf := make([]int, len(rows)), make([]float64, len(rows))
	if err := im.ClassifyInto(x, wantClass, wantConf); err != nil {
		t.Fatal(err)
	}
	classes, conf := make([]int, len(rows)), make([]float64, len(rows))
	if err := batchClassify(im, engineMaxBatch)(rows, classes, conf); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for i := range rows {
		if classes[i] != wantClass[i] || math.Float64bits(conf[i]) != math.Float64bits(wantConf[i]) {
			t.Fatalf("%s row %d: (%d, %v), want (%d, %v)", name, i, classes[i], conf[i], wantClass[i], wantConf[i])
		}
	}
}

// TestBatchClassifyZeroAlloc pins the steady state of the serve classify
// closure: after a warm-up call, a lone row and a chunked bypass block
// allocate nothing, at both precisions.
func TestBatchClassifyZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race (sync.Pool sheds items)")
	}
	// Pin the kernels to the serial path: a goroutine fan-out necessarily
	// allocates and is not what this measures.
	sweep.SetBudget(1)
	defer sweep.SetBudget(0)
	f32, f64, width := engineStacks(t)
	rng := rand.New(rand.NewSource(10))
	for _, tc := range engineCases {
		rows := engineRows(rng, tc.rows, width)
		classes, conf := make([]int, tc.rows), make([]float64, tc.rows)
		for _, arm := range []struct {
			name     string
			classify ClassifyFunc
		}{{"f32", batchClassify(f32, engineMaxBatch)}, {"f64", batchClassify(f64, engineMaxBatch)}} {
			if err := arm.classify(rows, classes, conf); err != nil {
				t.Fatalf("%s/%s: %v", tc.name, arm.name, err)
			}
			if allocs := testing.AllocsPerRun(20, func() {
				if err := arm.classify(rows, classes, conf); err != nil {
					t.Fatalf("%s/%s: %v", tc.name, arm.name, err)
				}
			}); allocs != 0 {
				t.Fatalf("%s/%s: classify allocates %v objects per call in steady state", tc.name, arm.name, allocs)
			}
		}
	}
}
