package mat

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sweep"
)

// TestParallelMatMulMatchesSerial checks the acceptance property of the
// blocked path for both element types: at every sweep budget the product
// is byte-identical to the serial loop, including ragged row counts that do
// not divide evenly across workers.
func TestParallelMatMulMatchesSerial(t *testing.T) {
	t.Run("f64", testParallelMatMul[float64])
	t.Run("f32", testParallelMatMul[float32])
}

func testParallelMatMul[T Float](t *testing.T) {
	defer sweep.SetBudget(0)
	rng := rand.New(rand.NewSource(3))
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 2}, {17, 31, 13}, {64, 64, 64}, {129, 65, 70}, {128, 96, 80}, {200, 40, 300},
	}
	for _, s := range shapes {
		a := randDense[T](rng, s.m, s.k)
		b := randDense[T](rng, s.k, s.n)
		bt := b.Transpose()
		sweep.SetBudget(1)
		serial, err := MatMul(a, b)
		if err != nil {
			t.Fatal(err)
		}
		serialT, err := mulT(a, bt)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int{2, 3, 8, 1000} {
			sweep.SetBudget(budget)
			par, err := MatMul(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if !Equal(serial, par, 0) {
				t.Fatalf("%dx%dx%d budget=%d: MatMul differs from serial", s.m, s.k, s.n, budget)
			}
			parT, err := mulT(a, bt)
			if err != nil {
				t.Fatal(err)
			}
			if !Equal(serialT, parT, 0) {
				t.Fatalf("%dx%dx%d budget=%d: MatMulT differs from serial", s.m, s.k, s.n, budget)
			}
		}
	}
}

// TestSmallProductAllocatesNothing: a product under the fan-out cutoff
// calls its kernel inline, with no row-range closure, even when the budget
// has workers to grant.
func TestSmallProductAllocatesNothing(t *testing.T) {
	sweep.SetBudget(8)
	defer sweep.SetBudget(0)
	rng := rand.New(rand.NewSource(7))
	a, b := RandNormal(rng, 32, 16, 1), RandNormal(rng, 16, 8, 1)
	out := New(32, 8)
	if allocs := testing.AllocsPerRun(20, func() {
		if err := MatMulInto(out, a, b); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a %d-flop product allocates %v objects per call", 32*16*8, allocs)
	}
}

// TestSetParallelism pins the forwarding shim: it sets and reads the one
// sweep budget, so a configure-then-restore sequence through both names
// (as the end-to-end benchmark does) leaves the budget where it was.
func TestSetParallelism(t *testing.T) {
	defer sweep.SetBudget(0)
	for _, n := range []int{3, 1, 0, -5} {
		SetParallelism(n)
		if Parallelism() != sweep.BudgetCap() || Parallelism() < 1 {
			t.Fatalf("SetParallelism(%d): Parallelism() = %d, BudgetCap() = %d", n, Parallelism(), sweep.BudgetCap())
		}
	}
	sweep.SetBudget(5)
	if Parallelism() != 5 {
		t.Fatalf("Parallelism() = %d after SetBudget(5)", Parallelism())
	}
	prevBudget, prevPar := sweep.BudgetCap(), Parallelism()
	sweep.SetBudget(2)
	SetParallelism(2)
	sweep.SetBudget(prevBudget)
	SetParallelism(prevPar)
	if sweep.BudgetCap() != 5 {
		t.Fatalf("restored budget = %d, want 5", sweep.BudgetCap())
	}
}

// BenchmarkMatMul sweeps square product sizes with the parallel path off and
// on, so the crossover point of the row-blocked fan-out is measured rather
// than asserted.
func BenchmarkMatMul(b *testing.B) {
	defer sweep.SetBudget(0)
	rng := rand.New(rand.NewSource(5))
	for _, size := range []int{32, 64, 128, 256, 512} {
		x := RandNormal(rng, size, size, 1)
		y := RandNormal(rng, size, size, 1)
		for _, mode := range []struct {
			name   string
			budget int
		}{{"serial", 1}, {"parallel", 0}} {
			b.Run(fmt.Sprintf("%s/n=%d", mode.name, size), func(b *testing.B) {
				sweep.SetBudget(mode.budget)
				b.SetBytes(int64(8 * size * size))
				for i := 0; i < b.N; i++ {
					if _, err := MatMul(x, y); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
