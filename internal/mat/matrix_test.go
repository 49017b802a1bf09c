package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustFromSlice[T Float](t *testing.T, rows, cols int, data []T) *Dense[T] {
	t.Helper()
	m, err := FromSlice(rows, cols, data)
	if err != nil {
		t.Fatalf("FromSlice: %v", err)
	}
	return m
}

// mulT returns a × bᵀ through MatMulTInto.
func mulT[T Float](a, b *Dense[T]) (*Dense[T], error) {
	out := NewDense[T](a.Rows(), b.Rows())
	return out, MatMulTInto(out, a, b)
}

// tMul returns aᵀ × b through TMatMulAddInto on a zero accumulator.
func tMul(a, b *Matrix) (*Matrix, error) {
	out := New(a.Cols(), b.Cols())
	return out, TMatMulAddInto(out, a, b)
}

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 || len(m.Data()) != 12 {
		t.Fatalf("shape = %dx%d len %d, want 3x4 len 12", m.Rows(), m.Cols(), len(m.Data()))
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewNegativeDims(t *testing.T) {
	m := New(-1, 5)
	if m.Rows() != 0 || m.Cols() != 0 {
		t.Fatalf("negative dims should produce empty matrix, got %dx%d", m.Rows(), m.Cols())
	}
}

func TestFromSliceShapeError(t *testing.T) {
	for _, c := range []struct {
		rows, cols int
		data       []float64
	}{
		{2, 2, []float64{1, 2, 3}},
		{-1, -3, []float64{1, 2, 3}},          // both negative, product 3
		{1 << 32, 1 << 32, nil},               // product wraps to 0
		{4, 1<<62 + 1, []float64{1, 2, 3, 4}}, // product wraps to 4
	} {
		if _, err := FromSlice(c.rows, c.cols, c.data); !errors.Is(err, ErrShape) {
			t.Fatalf("%dx%d: err = %v, want ErrShape", c.rows, c.cols, err)
		}
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	if m.At(2, 1) != 6 || m.At(0, 0) != 1 {
		t.Fatalf("unexpected contents: %v", m)
	}
	if _, err := FromRows([][]float64{{1}, {2, 3}}); !errors.Is(err, ErrShape) {
		t.Fatalf("ragged rows should fail with ErrShape, got %v", err)
	}
	empty, err := FromRows(nil)
	if err != nil || empty.Rows() != 0 {
		t.Fatalf("FromRows(nil) = %v, %v", empty, err)
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 42)
	m.Add(1, 2, 0.5)
	if got := m.At(1, 2); got != 42.5 {
		t.Fatalf("At = %v, want 42.5", got)
	}
}

func TestMatMulKnown(t *testing.T) {
	a := mustFromSlice(t, 2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := mustFromSlice(t, 3, 2, []float64{7, 8, 9, 10, 11, 12})
	got, err := MatMul(a, b)
	if err != nil {
		t.Fatalf("MatMul: %v", err)
	}
	want := mustFromSlice(t, 2, 2, []float64{58, 64, 139, 154})
	if !Equal(got, want, 1e-12) {
		t.Fatalf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulShapeError(t *testing.T) {
	t.Run("f64", testMatMulShapeError[float64])
	t.Run("f32", testMatMulShapeError[float32])
}

func testMatMulShapeError[T Float](t *testing.T) {
	a, b := NewDense[T](2, 3), NewDense[T](2, 3)
	if _, err := MatMul(a, b); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
	if err := MatMulInto(NewDense[T](2, 3), a, b); !errors.Is(err, ErrShape) {
		t.Fatalf("MatMulInto mismatched inner dims: %v", err)
	}
	if err := MatMulInto(NewDense[T](2, 2), a, NewDense[T](3, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("MatMulInto mismatched dst: %v", err)
	}
	if err := MatMulTInto(NewDense[T](2, 4), a, NewDense[T](4, 5)); !errors.Is(err, ErrShape) {
		t.Fatalf("MatMulTInto mismatched cols: %v", err)
	}
	if err := a.AddRowVector(NewDense[T](2, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("AddRowVector accepted a non-row bias: %v", err)
	}
	if _, err := FromSlice(2, 2, []T{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("FromSlice accepted short data: %v", err)
	}
}

// MatMulTInto(a,b) must equal MatMul(a, bᵀ), and TMatMulAddInto(0, a,b)
// must equal MatMul(aᵀ, b). These identities are exercised with random
// matrices since they are load-bearing for the backprop code.
func TestMatMulTransposedIdentities(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		n, k, m := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := RandNormal(rng, n, k, 1)
		b := RandNormal(rng, m, k, 1) // for MatMulTInto: a (n×k) × bᵀ (k×m)
		gotT, err := mulT(a, b)
		if err != nil {
			t.Fatalf("MatMulTInto: %v", err)
		}
		wantT, err := MatMul(a, b.Transpose())
		if err != nil {
			t.Fatalf("MatMul: %v", err)
		}
		if !Equal(gotT, wantT, 1e-10) {
			t.Fatalf("MatMulT mismatch at trial %d", trial)
		}

		c := RandNormal(rng, k, n, 1)
		d := RandNormal(rng, k, m, 1) // for TMatMulAddInto: cᵀ (n×k) × d (k×m)
		gotTM, err := tMul(c, d)
		if err != nil {
			t.Fatalf("TMatMulAddInto: %v", err)
		}
		wantTM, err := MatMul(c.Transpose(), d)
		if err != nil {
			t.Fatalf("MatMul: %v", err)
		}
		if !Equal(gotTM, wantTM, 1e-10) {
			t.Fatalf("TMatMul mismatch at trial %d", trial)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := RandNormal(rng, 1+rng.Intn(8), 1+rng.Intn(8), 2)
		return Equal(m.Transpose().Transpose(), m, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddSubInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := RandNormal(rng, 1+rng.Intn(5), 1+rng.Intn(5), 3)
		b := RandNormal(rng, a.Rows(), a.Cols(), 3)
		sum := a.Clone()
		if err := sum.AddInPlace(b); err != nil {
			return false
		}
		back, err := SubM(sum, b)
		if err != nil {
			return false
		}
		return Equal(back, a, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddRowVectorAndSumRows(t *testing.T) {
	t.Run("f64", testAddRowVectorAndSumRows[float64])
	t.Run("f32", testAddRowVectorAndSumRows[float32])
}

func testAddRowVectorAndSumRows[T Float](t *testing.T) {
	m := mustFromSlice(t, 2, 3, []T{1, 2, 3, 4, 5, 6})
	v := mustFromSlice(t, 1, 3, []T{10, 20, 30})
	if err := m.AddRowVector(v); err != nil {
		t.Fatalf("AddRowVector: %v", err)
	}
	want := mustFromSlice(t, 2, 3, []T{11, 22, 33, 14, 25, 36})
	if !Equal(m, want, 0) {
		t.Fatalf("AddRowVector = %v, want %v", m, want)
	}
	m64, ok := any(m).(*Matrix)
	if !ok {
		return // AddSumRows is float64-only: it serves the gradient path
	}
	sums := New(1, 3)
	if err := AddSumRows(sums, m64); err != nil {
		t.Fatalf("AddSumRows: %v", err)
	}
	wantSums := mustFromSlice(t, 1, 3, []float64{25, 47, 69})
	if !Equal(sums, wantSums, 0) {
		t.Fatalf("AddSumRows = %v, want %v", sums, wantSums)
	}
}

func TestAddRowVectorShapeError(t *testing.T) {
	m := New(2, 3)
	if err := m.AddRowVector(New(1, 2)); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
	if err := m.AddRowVector(New(2, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

func TestCloneIsolation(t *testing.T) {
	a := mustFromSlice(t, 1, 2, []float64{1, 2})
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone aliases the original backing array")
	}
}

func TestApplyAndScale(t *testing.T) {
	m := mustFromSlice(t, 1, 3, []float64{-1, 0, 2})
	relu := New(1, 3)
	if err := ReLUInto(relu, m); err != nil {
		t.Fatal(err)
	}
	want := mustFromSlice(t, 1, 3, []float64{0, 0, 2})
	if !Equal(relu, want, 0) {
		t.Fatalf("ReLUInto = %v", relu)
	}
	m.Scale(2)
	want2 := mustFromSlice(t, 1, 3, []float64{-2, 0, 4})
	if !Equal(m, want2, 0) {
		t.Fatalf("Scale = %v", m)
	}
}

// TestApplyIntoReLUInto checks ReLUInto, the caller-owned-destination
// ReLU of both precisions. It keeps its name from when it also covered the
// generic ApplyInto, which nothing called.
func TestApplyIntoReLUInto(t *testing.T) {
	t.Run("f64", testReLUInto[float64])
	t.Run("f32", testReLUInto[float32])
}

func testReLUInto[T Float](t *testing.T) {
	src := mustFromSlice(t, 1, 4, []T{-1, 2, -3, 4})
	dst := NewDense[T](1, 4)
	if err := ReLUInto(dst, src); err != nil {
		t.Fatal(err)
	}
	if !Equal(dst, mustFromSlice(t, 1, 4, []T{0, 2, 0, 4}), 0) {
		t.Fatalf("ReLUInto = %v", dst)
	}
	if err := ReLUInto(NewDense[T](4, 1), src); !errors.Is(err, ErrShape) {
		t.Fatalf("ReLUInto shape mismatch: %v", err)
	}
}

func TestSliceRowsCols(t *testing.T) {
	m := mustFromSlice(t, 3, 3, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	r, err := m.SliceRows(1, 3)
	if err != nil {
		t.Fatalf("SliceRows: %v", err)
	}
	wantR := mustFromSlice(t, 2, 3, []float64{4, 5, 6, 7, 8, 9})
	if !Equal(r, wantR, 0) {
		t.Fatalf("SliceRows = %v", r)
	}
	c := New(3, 2)
	if err := SliceColsInto(c, m, 0, 2); err != nil {
		t.Fatalf("SliceColsInto: %v", err)
	}
	wantC := mustFromSlice(t, 3, 2, []float64{1, 2, 4, 5, 7, 8})
	if !Equal(c, wantC, 0) {
		t.Fatalf("SliceColsInto = %v", c)
	}
	if _, err := m.SliceRows(2, 1); !errors.Is(err, ErrShape) {
		t.Fatalf("inverted range should fail, got %v", err)
	}
	if err := SliceColsInto(New(3, 3), m, -1, 2); !errors.Is(err, ErrShape) {
		t.Fatalf("negative range should fail, got %v", err)
	}
}

func TestSetColsRoundTrip(t *testing.T) {
	t.Run("f64", testSetColsRoundTrip[float64])
	t.Run("f32", testSetColsRoundTrip[float32])
}

func testSetColsRoundTrip[T Float](t *testing.T) {
	m := NewDense[T](2, 4)
	src := mustFromSlice(t, 2, 2, []T{1, 2, 3, 4})
	if err := m.SetCols(1, src); err != nil {
		t.Fatalf("SetCols: %v", err)
	}
	into := NewDense[T](2, 2)
	if err := SliceColsInto(into, m, 1, 3); err != nil {
		t.Fatalf("SliceColsInto: %v", err)
	}
	if !Equal(into, src, 0) {
		t.Fatalf("SetCols/SliceColsInto round trip = %v, want %v", into, src)
	}
	if err := SliceColsInto(into, m, 0, 3); !errors.Is(err, ErrShape) {
		t.Fatalf("SliceColsInto wrong dst width: %v", err)
	}
	if err := m.SetCols(3, src); !errors.Is(err, ErrShape) {
		t.Fatalf("SetCols past the last column: %v", err)
	}
}

// TestConcatCols places two blocks side by side with SetCols.
func TestConcatCols(t *testing.T) {
	a := mustFromSlice(t, 2, 1, []float64{1, 3})
	b := mustFromSlice(t, 2, 2, []float64{10, 20, 30, 40})
	got := New(2, 3)
	if err := got.SetCols(0, a); err != nil {
		t.Fatalf("SetCols: %v", err)
	}
	if err := got.SetCols(a.Cols(), b); err != nil {
		t.Fatalf("SetCols: %v", err)
	}
	want := mustFromSlice(t, 2, 3, []float64{1, 10, 20, 3, 30, 40})
	if !Equal(got, want, 0) {
		t.Fatalf("concatenation = %v, want %v", got, want)
	}
	if err := got.SetCols(0, New(1, 1)); !errors.Is(err, ErrShape) {
		t.Fatalf("row mismatch should fail, got %v", err)
	}
}

func TestArgmaxRow(t *testing.T) {
	t.Run("f64", testArgmaxRow[float64])
	t.Run("f32", testArgmaxRow[float32])
}

func testArgmaxRow[T Float](t *testing.T) {
	nan := T(math.NaN())
	m := mustFromSlice(t, 4, 3, []T{0.2, 0.7, 0.1, 5, -2, 4.9, 0, -2.25, -3, nan, -1, -2})
	// Row 2 ties at the first maximum; row 3 starts with NaN, which never
	// compares greater, so the largest ordinary value wins.
	for i, want := range []int{1, 0, 0, 1} {
		if got := m.ArgmaxRow(i); got != want {
			t.Fatalf("ArgmaxRow(%d) = %d, want %d", i, got, want)
		}
	}
}

// TestToFloat32 checks the f64→f32 narrowing of the frozen-inference path.
func TestToFloat32(t *testing.T) {
	src := mustFromSlice(t, 2, 2, []float64{1.5, 0, 0, -2.25})
	q := ToFloat32(src)
	if q.Rows() != 2 || q.Cols() != 2 {
		t.Fatalf("shape %dx%d, want 2x2", q.Rows(), q.Cols())
	}
	for i, v := range src.Data() {
		if q.Data()[i] != float32(v) {
			t.Fatalf("ToFloat32[%d] = %v, want %v", i, q.Data()[i], float32(v))
		}
	}
}

func TestNormsAndSums(t *testing.T) {
	m := mustFromSlice(t, 1, 4, []float64{3, -4, 0, 0})
	if got := m.MaxAbs(); got != 4 {
		t.Fatalf("MaxAbs = %v, want 4", got)
	}
	if got := New(0, 0).MaxAbs(); got != 0 {
		t.Fatalf("MaxAbs of an empty matrix = %v, want 0", got)
	}
}

func TestAddScaled(t *testing.T) {
	m := mustFromSlice(t, 1, 2, []float64{1, 1})
	b := mustFromSlice(t, 1, 2, []float64{2, 4})
	if err := m.AddScaled(0.5, b); err != nil {
		t.Fatalf("AddScaled: %v", err)
	}
	want := mustFromSlice(t, 1, 2, []float64{2, 3})
	if !Equal(m, want, 1e-12) {
		t.Fatalf("AddScaled = %v, want %v", m, want)
	}
}

func TestCopyFromAndZeroFill(t *testing.T) {
	a := mustFromSlice(t, 1, 2, []float64{7, 8})
	b := New(1, 2)
	if err := b.CopyFrom(a); err != nil {
		t.Fatalf("CopyFrom: %v", err)
	}
	if !Equal(a, b, 0) {
		t.Fatal("CopyFrom did not copy")
	}
	b.Zero()
	if !Equal(b, New(1, 2), 0) {
		t.Fatal("Zero did not zero")
	}
	b.Fill(2)
	if !Equal(b, mustFromSlice(t, 1, 2, []float64{2, 2}), 0) {
		t.Fatal("Fill did not fill")
	}
	if err := b.CopyFrom(New(2, 2)); !errors.Is(err, ErrShape) {
		t.Fatalf("CopyFrom shape mismatch: %v", err)
	}
}

func TestRowViewAliases(t *testing.T) {
	m := New(2, 2)
	m.Row(1)[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatal("Row must be a live view")
	}
}

func TestGlorotUniformBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := GlorotUniform(rng, 64, 32, 64, 32)
	limit := math.Sqrt(6.0 / 96.0)
	if m.MaxAbs() > limit {
		t.Fatalf("Glorot init out of bounds: %v > %v", m.MaxAbs(), limit)
	}
	if m.MaxAbs() == 0 {
		t.Fatal("Glorot init all zero")
	}
}

func TestRandDeterminism(t *testing.T) {
	a := RandNormal(rand.New(rand.NewSource(3)), 4, 4, 1)
	b := RandNormal(rand.New(rand.NewSource(3)), 4, 4, 1)
	if !Equal(a, b, 0) {
		t.Fatal("same seed must give same matrix")
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := RandNormal(rng, 128, 128, 1)
	y := RandNormal(rng, 128, 128, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatMul(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
