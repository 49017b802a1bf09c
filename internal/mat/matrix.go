// Package mat implements the small dense-matrix kernel used by the neural
// network substrate, for both precisions the project computes in. Dense[T]
// is a row-major matrix of float64 (Matrix: training, gradients and the
// canonical f64 inference) or float32 (the frozen inference twin and the
// serving path), with no external dependencies. The API favours explicit
// destination-free operations that return fresh matrices, plus in-place
// and caller-owned-destination variants for the hot paths (training loops,
// frozen inference) to limit allocation.
//
// Only the product kernels differ between the precisions: float64 keeps
// 4-wide zero-skipping kernels (ReLU-sparse training activations), float32
// 8-wide dense ones. Products above a flop cutoff split into row blocks
// across goroutines drawn from the shared sweep worker budget, and every
// output row keeps its serial arithmetic order, so results are
// byte-identical at any worker count.
package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrShape is returned (wrapped) by operations whose operand shapes do not
// conform.
var ErrShape = errors.New("mat: shape mismatch")

// Float is the element type of a Dense matrix.
type Float interface{ float32 | float64 }

// Dense is a dense, row-major matrix of T.
//
// The zero value is an empty 0x0 matrix.
type Dense[T Float] struct {
	rows, cols int
	data       []T
}

// Matrix is the float64 matrix of training and canonical inference.
type Matrix = Dense[float64]

// NewDense returns a zeroed rows×cols matrix of T.
func NewDense[T Float](rows, cols int) *Dense[T] {
	if rows < 0 || cols < 0 {
		rows, cols = 0, 0
	}
	return &Dense[T]{rows: rows, cols: cols, data: make([]T, rows*cols)}
}

// New returns a zeroed rows×cols float64 matrix.
func New(rows, cols int) *Matrix { return NewDense[float64](rows, cols) }

// FromSlice builds a rows×cols matrix backed by a copy of data (row-major).
// rows·cols is checked against len(data) without overflow, so the matrix
// never costs more memory than data, whatever the dimensions claim.
func FromSlice[T Float](rows, cols int, data []T) (*Dense[T], error) {
	if rows < 0 || cols < 0 || (rows > 0 && cols > math.MaxInt/rows) || len(data) != rows*cols {
		return nil, fmt.Errorf("%w: %d values for %dx%d", ErrShape, len(data), rows, cols)
	}
	m := NewDense[T](rows, cols)
	copy(m.data, data)
	return m, nil
}

// ToFloat32 narrows a float64 matrix to float32: the one-time weight (and
// per-batch input) conversion of the frozen-inference path.
func ToFloat32(src *Matrix) *Dense[float32] {
	m := NewDense[float32](src.rows, src.cols)
	for i, v := range src.data {
		m.data[i] = float32(v)
	}
	return m
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return New(0, 0), nil
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			return nil, fmt.Errorf("%w: row %d has %d values, want %d", ErrShape, i, len(r), c)
		}
		copy(m.data[i*c:(i+1)*c], r)
	}
	return m, nil
}

// Rows returns the number of rows.
func (m *Dense[T]) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense[T]) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Dense[T]) At(i, j int) T { return m.data[i*m.cols+j] }

// Set assigns the element at (i, j).
func (m *Dense[T]) Set(i, j int, v T) { m.data[i*m.cols+j] = v }

// Add adds v to the element at (i, j).
func (m *Dense[T]) Add(i, j int, v T) { m.data[i*m.cols+j] += v }

// Data exposes the backing slice (row-major). Mutations are visible to the
// matrix; callers that need isolation should Clone first.
func (m *Dense[T]) Data() []T { return m.data }

// Row returns row i as a view into the backing slice.
func (m *Dense[T]) Row(i int) []T { return m.data[i*m.cols : (i+1)*m.cols] }

// Col returns a copy of column j.
func (m *Dense[T]) Col(j int) []T {
	out := make([]T, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Clone returns a deep copy.
func (m *Dense[T]) Clone() *Dense[T] {
	c := NewDense[T](m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// CopyFrom copies src into m; shapes must match.
func (m *Dense[T]) CopyFrom(src *Dense[T]) error {
	if m.rows != src.rows || m.cols != src.cols {
		return fmt.Errorf("%w: CopyFrom %dx%d into %dx%d", ErrShape, src.rows, src.cols, m.rows, m.cols)
	}
	copy(m.data, src.data)
	return nil
}

// Zero sets every element to zero.
func (m *Dense[T]) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Dense[T]) Fill(v T) {
	for i := range m.data {
		m.data[i] = v
	}
}

// String renders the matrix for debugging.
func (m *Dense[T]) String() string {
	s := fmt.Sprintf("Matrix(%dx%d)[", m.rows, m.cols)
	for i := 0; i < m.rows && i < 6; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.cols && j < 8; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}

// MatMul returns a × b. Products above a size cutoff are computed by
// row blocks across goroutines drawn from the shared sweep budget; the
// result is byte-identical to the serial path because each output row keeps
// its serial arithmetic order (the tiled kernels preserve per-element
// accumulation order exactly).
func MatMul[T Float](a, b *Dense[T]) (*Dense[T], error) {
	if a.cols != b.rows {
		return nil, fmt.Errorf("%w: MatMul %dx%d × %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	out := NewDense[T](a.rows, b.cols)
	matMulDispatch(out, a, b, productAB)
	return out, nil
}

// MatMulInto computes dst = a × b into a caller-owned destination, avoiding
// the allocation of MatMul on hot paths (training scratch buffers, frozen
// inference). Every element of dst is overwritten; dst must not alias a or
// b.
func MatMulInto[T Float](dst, a, b *Dense[T]) error {
	if a.cols != b.rows {
		return fmt.Errorf("%w: MatMulInto %dx%d × %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		return fmt.Errorf("%w: MatMulInto dst %dx%d, want %dx%d", ErrShape, dst.rows, dst.cols, a.rows, b.cols)
	}
	if kernelsOf[T]().clearAB {
		dst.Zero()
	}
	matMulDispatch(dst, a, b, productAB)
	return nil
}

// MatMulTInto computes dst = a × bᵀ into a caller-owned destination. dst
// must not alias a or b. Every element is overwritten; dst need not be
// zeroed.
func MatMulTInto[T Float](dst, a, b *Dense[T]) error {
	if a.cols != b.cols {
		return fmt.Errorf("%w: MatMulTInto %dx%d × (%dx%d)ᵀ", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	if dst.rows != a.rows || dst.cols != b.rows {
		return fmt.Errorf("%w: MatMulTInto dst %dx%d, want %dx%d", ErrShape, dst.rows, dst.cols, a.rows, b.rows)
	}
	matMulDispatch(dst, a, b, productABt)
	return nil
}

// TMatMulAddInto accumulates dst += aᵀ × b — the fused form of the gradient
// update G += xᵀ·gy that writes straight into the gradient accumulator
// instead of materializing the product. dst must not alias a or b.
func TMatMulAddInto(dst, a, b *Matrix) error {
	if a.rows != b.rows {
		return fmt.Errorf("%w: TMatMulAddInto (%dx%d)ᵀ × %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	if dst.rows != a.cols || dst.cols != b.cols {
		return fmt.Errorf("%w: TMatMulAddInto dst %dx%d, want %dx%d", ErrShape, dst.rows, dst.cols, a.cols, b.cols)
	}
	tMatMulAccum(dst, a, b)
	return nil
}

// Transpose returns mᵀ.
//
//apslint:allow reach reference transpose the product-kernel tests build their expected values from
func (m *Dense[T]) Transpose() *Dense[T] {
	out := NewDense[T](m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*out.cols+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// SubM returns a − b.
func SubM(a, b *Matrix) (*Matrix, error) {
	if a.rows != b.rows || a.cols != b.cols {
		return nil, fmt.Errorf("%w: SubM %dx%d - %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	out := a.Clone()
	for i, v := range b.data {
		out.data[i] -= v
	}
	return out, nil
}

// AddInPlace adds b into m.
func (m *Dense[T]) AddInPlace(b *Dense[T]) error {
	if m.rows != b.rows || m.cols != b.cols {
		return fmt.Errorf("%w: AddInPlace %dx%d += %dx%d", ErrShape, m.rows, m.cols, b.rows, b.cols)
	}
	for i, v := range b.data {
		m.data[i] += v
	}
	return nil
}

// AddScaled adds s·b into m (axpy).
func (m *Dense[T]) AddScaled(s T, b *Dense[T]) error {
	if m.rows != b.rows || m.cols != b.cols {
		return fmt.Errorf("%w: AddScaled %dx%d += s*%dx%d", ErrShape, m.rows, m.cols, b.rows, b.cols)
	}
	for i, v := range b.data {
		m.data[i] += s * v
	}
	return nil
}

// Scale multiplies every element by s in place.
func (m *Dense[T]) Scale(s T) {
	for i := range m.data {
		m.data[i] *= s
	}
}

// ReLUInto computes dst = max(src, 0) elementwise into a caller-owned
// destination (a NaN maps to +0, and no element becomes −0): the ReLU
// layer's forward pass, in training and in the frozen stack.
func ReLUInto[T Float](dst, src *Dense[T]) error {
	if dst.rows != src.rows || dst.cols != src.cols {
		return fmt.Errorf("%w: ReLUInto %dx%d from %dx%d", ErrShape, dst.rows, dst.cols, src.rows, src.cols)
	}
	switch d := any(dst).(type) {
	case *Dense[float64]:
		relu64(d.data, any(src).(*Dense[float64]).data)
	case *Dense[float32]:
		relu32(d.data, any(src).(*Dense[float32]).data)
	}
	return nil
}

// relu64 and relu32 keep each element's bits where v > 0 and clear them
// (+0) elsewhere, NaN included. The mask is an integer select, which
// compiles to a conditional move: a branch on v > 0 mispredicts on about
// half of a layer's activations.
func relu64(dst, src []float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		var m uint64
		if v > 0 {
			m = math.MaxUint64
		}
		dst[i] = math.Float64frombits(math.Float64bits(v) & m)
	}
}

func relu32(dst, src []float32) {
	dst = dst[:len(src)]
	for i, v := range src {
		var m uint32
		if v > 0 {
			m = math.MaxUint32
		}
		dst[i] = math.Float32frombits(math.Float32bits(v) & m)
	}
}

// AddRowVector adds a 1×cols row vector to every row of m, in place.
func (m *Dense[T]) AddRowVector(v *Dense[T]) error {
	if v.rows != 1 || v.cols != m.cols {
		return fmt.Errorf("%w: AddRowVector %dx%d += %dx%d", ErrShape, m.rows, m.cols, v.rows, v.cols)
	}
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, b := range v.data {
			row[j] += b
		}
	}
	return nil
}

// AddSumRows accumulates the 1×cols column-sums of m into dst (dst += Σ
// rows), row by row in row order — the bias-gradient update G += Σ gy,
// with no intermediate matrix.
func AddSumRows(dst, m *Matrix) error {
	if dst.rows != 1 || dst.cols != m.cols {
		return fmt.Errorf("%w: AddSumRows %dx%d += colsums of %dx%d", ErrShape, dst.rows, dst.cols, m.rows, m.cols)
	}
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			dst.data[j] += v
		}
	}
	return nil
}

// MaxAbs returns the maximum absolute element value (0 for empty matrices).
func (m *Dense[T]) MaxAbs() T {
	var mx T
	for _, v := range m.data {
		if a := T(math.Abs(float64(v))); a > mx {
			mx = a
		}
	}
	return mx
}

// Equal reports whether a and b have identical shape and elements within tol.
//
//apslint:allow reach test seam: the shared matrix comparison of the mat, nn, attack and dataset tests
func Equal[T Float](a, b *Dense[T], tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i, v := range a.data {
		if math.Abs(float64(v-b.data[i])) > tol {
			return false
		}
	}
	return true
}

// SliceRows returns a copy of rows [from, to).
func (m *Dense[T]) SliceRows(from, to int) (*Dense[T], error) {
	if from < 0 || to > m.rows || from > to {
		return nil, fmt.Errorf("%w: SliceRows [%d,%d) of %d rows", ErrShape, from, to, m.rows)
	}
	out := NewDense[T](to-from, m.cols)
	copy(out.data, m.data[from*m.cols:to*m.cols])
	return out, nil
}

// RowsView returns rows [from, to) as a view sharing m's backing slice —
// no copy, mutations are visible both ways. The training pipeline uses it
// to hand contiguous minibatch blocks to per-worker shards without
// re-gathering; the serving batcher, to run a fused classify over just the
// occupied prefix of its staging buffer.
func (m *Dense[T]) RowsView(from, to int) (*Dense[T], error) {
	v := &Dense[T]{}
	if err := m.RowsViewInto(v, from, to); err != nil {
		return nil, err
	}
	return v, nil
}

// RowsViewInto is RowsView into a caller-owned header: it points view at
// rows [from, to) of m without allocating, so a loop over row tiles of one
// matrix reuses a single header.
func (m *Dense[T]) RowsViewInto(view *Dense[T], from, to int) error {
	if from < 0 || to > m.rows || from > to {
		return fmt.Errorf("%w: RowsView [%d,%d) of %d rows", ErrShape, from, to, m.rows)
	}
	*view = Dense[T]{rows: to - from, cols: m.cols, data: m.data[from*m.cols : to*m.cols]}
	return nil
}

// SliceColsInto copies columns [from, to) of m into a caller-owned
// destination.
func SliceColsInto[T Float](dst, m *Dense[T], from, to int) error {
	if from < 0 || to > m.cols || from > to {
		return fmt.Errorf("%w: SliceColsInto [%d,%d) of %d cols", ErrShape, from, to, m.cols)
	}
	if dst.rows != m.rows || dst.cols != to-from {
		return fmt.Errorf("%w: SliceColsInto dst %dx%d, want %dx%d", ErrShape, dst.rows, dst.cols, m.rows, to-from)
	}
	for i := 0; i < m.rows; i++ {
		copy(dst.Row(i), m.Row(i)[from:to])
	}
	return nil
}

// SetCols copies src into columns [from, from+src.Cols()) of m.
func (m *Dense[T]) SetCols(from int, src *Dense[T]) error {
	if src.rows != m.rows || from < 0 || from+src.cols > m.cols {
		return fmt.Errorf("%w: SetCols at %d with %dx%d into %dx%d", ErrShape, from, src.rows, src.cols, m.rows, m.cols)
	}
	for i := 0; i < m.rows; i++ {
		copy(m.Row(i)[from:from+src.cols], src.Row(i))
	}
	return nil
}

// ArgmaxRow returns the index of the maximum element of row i.
//
//apslint:allow reach reference argmax the nn tests check the classify epilogue against
func (m *Dense[T]) ArgmaxRow(i int) int {
	row := m.Row(i)
	best, bi := T(math.Inf(-1)), 0
	for j, v := range row {
		if v > best {
			best, bi = v, j
		}
	}
	return bi
}
