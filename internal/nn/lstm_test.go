package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// rowStepRef runs an LSTM over x with the per-row step that the tile-wide
// lstmCell replaced, kept here as its reference: the same two products per
// step, then, one row at a time, z = (z + zh) + b and each unit's gates,
// cell state, tanh(c) and hidden state through the scalar activations. It
// returns every step's i, f, g, o, c, tanh(c) and h (batch × hidden each),
// in that order.
func rowStepRef[T mat.Float](x, wx, wh, b *mat.Dense[T], steps int) [][7]*mat.Dense[T] {
	batch, in, H := x.Rows(), wx.Rows(), wh.Rows()
	xt := mat.NewDense[T](batch, in)
	z, zh := mat.NewDense[T](batch, 4*H), mat.NewDense[T](batch, 4*H)
	h, c := mat.NewDense[T](batch, H), mat.NewDense[T](batch, H)
	bd := b.Data()
	out := make([][7]*mat.Dense[T], steps)
	for t := range out {
		if err := mat.SliceColsInto(xt, x, t*in, (t+1)*in); err != nil {
			panic(err)
		}
		if err := mat.MatMulInto(z, xt, wx); err != nil {
			panic(err)
		}
		if err := mat.MatMulInto(zh, h, wh); err != nil {
			panic(err)
		}
		for k := range out[t] {
			out[t][k] = mat.NewDense[T](batch, H)
		}
		st := out[t]
		for r := 0; r < batch; r++ {
			zr, zhr, cr, hr := z.Row(r), zh.Row(r), c.Row(r), h.Row(r)
			for j := range zr {
				zr[j] = (zr[j] + zhr[j]) + bd[j]
			}
			ig, fg, gg, og := st[0].Row(r), st[1].Row(r), st[2].Row(r), st[3].Row(r)
			cs, tc, hs := st[4].Row(r), st[5].Row(r), st[6].Row(r)
			for j := 0; j < H; j++ {
				ig[j], fg[j] = sigmoidT(zr[j]), sigmoidT(zr[H+j])
				gg[j], og[j] = tanhT(zr[2*H+j]), sigmoidT(zr[3*H+j])
				cr[j] = cr[j]*fg[j] + gg[j]*ig[j]
				tc[j] = tanhT(cr[j])
				hr[j] = tc[j] * og[j]
				cs[j], hs[j] = cr[j], hr[j]
			}
		}
	}
	return out
}

// sameFloat reports whether x and y are the same float bit for bit, except
// that any NaN equals any NaN: which payload survives where two NaNs meet
// is up to the compiler's choice of operand, not the Go source.
func sameFloat[T mat.Float](x, y T) bool {
	if x != x || y != y {
		return x != x && y != y
	}
	return math.Float64bits(float64(x)) == math.Float64bits(float64(y))
}

// firstMismatch returns the first element of got that differs from want in
// sameFloat's sense, or "" when none does. got holds columns [off, off +
// want.Cols()) of each row.
func firstMismatch[T mat.Float](got, want *mat.Dense[T], off int) string {
	for r := 0; r < want.Rows(); r++ {
		g, w := got.Row(r)[off:off+want.Cols()], want.Row(r)
		for j := range w {
			if !sameFloat(g[j], w[j]) {
				return fmt.Sprintf("(%d,%d) = %v, want %v", r, j, g[j], w[j])
			}
		}
	}
	return ""
}

// lstmTileBatch returns rows × cols Gaussian inputs in which every fourth
// row, from row 1, carries one of NaN, +Inf, −Inf and 1e300 at a few
// columns.
func lstmTileBatch(rng *rand.Rand, rows, cols int) *mat.Matrix {
	x := randBatch(rng, rows, cols)
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300}
	for r := 1; r < rows; r += 4 {
		for n := 0; n < 3; n++ {
			x.Set(r, rng.Intn(cols), odd[(r/4+n)%len(odd)])
		}
	}
	return x
}

// TestLSTMTileMatchesRowReference pins the tile-wide LSTM step to the
// per-row reference step: LSTM.Forward (its output and every stored gate,
// cell and tanh(c) block that Backward reads), the frozen f64 stack and
// the frozen f32 stack, at tile- and chunk-edge row counts (inferTile,
// lstmCellRows), at hidden widths whose gate blocks do and do not fill
// whole eight-lane groups, with NaN, ±Inf and 1e300 inputs, and with a
// third of the units driven to |c| > 44 (for positive and negative c),
// where tanh declines to the scalar path.
func TestLSTMTileMatchesRowReference(t *testing.T) {
	const inputSize, steps = 3, 48
	for _, H := range []int{12, 24, 13} {
		rng := rand.New(rand.NewSource(int64(100 + H)))
		l := NewLSTM(rng, inputSize, H, steps, true)
		// Saturate i, f and g (g at +1 for the first third of the units,
		// −1 for the second) so c moves by about one a step.
		bias := l.b.W.Row(0)
		for j := 0; j < 2*H/3; j++ {
			g := 30.0
			if j >= H/3 {
				g = -30
			}
			bias[j], bias[H+j], bias[2*H+j] = 30, 30, g
		}
		m, err := NewModel(inputSize*steps, nil, l)
		if err != nil {
			t.Fatal(err)
		}
		f64, err := m.Stack()
		if err != nil {
			t.Fatal(err)
		}
		f32, err := m.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		wx32, wh32, b32 := mat.ToFloat32(l.wx.W), mat.ToFloat32(l.wh.W), mat.ToFloat32(l.b.W)
		for _, rows := range []int{1, 7, 17, 63, 64, 65} {
			what := fmt.Sprintf("H=%d rows=%d", H, rows)
			x := lstmTileBatch(rng, rows, inputSize*steps)
			ref := rowStepRef(x, l.wx.W, l.wh.W, l.b.W, steps)
			var maxC float64
			for _, st := range ref {
				for _, v := range st[4].Data() {
					if !math.IsInf(v, 0) {
						maxC = max(maxC, math.Abs(v))
					}
				}
			}
			if maxC <= 44 {
				t.Fatalf("%s: max finite |c| %v, want past 44", what, maxC)
			}

			out, err := l.Forward(x)
			if err != nil {
				t.Fatal(err)
			}
			f64Out := mat.New(rows, steps*H)
			if err := f64.Infer(x, f64Out); err != nil {
				t.Fatal(err)
			}
			ref32 := rowStepRef(mat.ToFloat32(x), wx32, wh32, b32, steps)
			f32Out := mat.NewDense[float32](rows, steps*H)
			if err := f32.Infer(mat.ToFloat32(x), f32Out); err != nil {
				t.Fatal(err)
			}
			for s := 0; s < steps; s++ {
				st := &l.ws.steps[s]
				stored := [7]*mat.Matrix{&st.i, &st.f, &st.g, &st.o, &st.c.view, &st.tc.view, &st.h.view}
				for k, name := range []string{"i", "f", "g", "o", "c", "tanh(c)", "h"} {
					if d := firstMismatch(stored[k], ref[s][k], 0); d != "" {
						t.Fatalf("%s: Forward step %d %s %s", what, s, name, d)
					}
				}
				if d := firstMismatch(out, ref[s][6], s*H); d != "" {
					t.Fatalf("%s: Forward output step %d %s", what, s, d)
				}
				if d := firstMismatch(f64Out, ref[s][6], s*H); d != "" {
					t.Fatalf("%s: frozen f64 step %d %s", what, s, d)
				}
				if d := firstMismatch(f32Out, ref32[s][6], s*H); d != "" {
					t.Fatalf("%s: frozen f32 step %d %s", what, s, d)
				}
			}
		}
	}
}
