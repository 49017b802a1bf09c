package stl

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/controller"
)

func tr(signals map[string][]float64) Trace { return &MapTrace{Signals: signals} }

func mustEval(t *testing.T, f Formula, trace Trace, step int) bool {
	t.Helper()
	v, err := f.Eval(trace, step)
	if err != nil {
		t.Fatalf("Eval(%s): %v", f, err)
	}
	return v
}

func mustRob(t *testing.T, f Formula, trace Trace, step int) float64 {
	t.Helper()
	r, err := f.Robustness(trace, step)
	if err != nil {
		t.Fatalf("Robustness(%s): %v", f, err)
	}
	return r
}

func TestAtomOperators(t *testing.T) {
	trace := tr(map[string][]float64{"x": {5}})
	tests := []struct {
		atom Atom
		want bool
	}{
		{Atom{"x", OpGT, 4, 0}, true},
		{Atom{"x", OpGT, 5, 0}, true}, // robustness 0 counts as satisfied
		{Atom{"x", OpGT, 6, 0}, false},
		{Atom{"x", OpGE, 5, 0}, true},
		{Atom{"x", OpLT, 6, 0}, true},
		{Atom{"x", OpLT, 4, 0}, false},
		{Atom{"x", OpLE, 5, 0}, true},
		{Atom{"x", OpEQ, 5, 0.1}, true},
		{Atom{"x", OpEQ, 5.05, 0.1}, true},
		{Atom{"x", OpEQ, 6, 0.1}, false},
		{Atom{"x", OpNE, 6, 0.1}, true},
		{Atom{"x", OpNE, 5, 0.1}, false},
	}
	for _, tt := range tests {
		if got := mustEval(t, tt.atom, trace, 0); got != tt.want {
			t.Errorf("%s = %v, want %v", tt.atom, got, tt.want)
		}
	}
}

func TestAtomMissingSignal(t *testing.T) {
	trace := tr(map[string][]float64{"x": {1}})
	if _, err := (Atom{"y", OpGT, 0, 0}).Eval(trace, 0); err == nil {
		t.Fatal("want error for unknown signal")
	}
	if _, err := (Atom{"x", OpGT, 0, 0}).Eval(trace, 5); err == nil {
		t.Fatal("want error for out-of-range step")
	}
}

func TestBooleanConnectives(t *testing.T) {
	trace := tr(map[string][]float64{"a": {1}, "b": {-1}})
	aPos := Atom{"a", OpGT, 0, 0}
	bPos := Atom{"b", OpGT, 0, 0}
	if !mustEval(t, NewAnd(aPos), trace, 0) {
		t.Fatal("single-operand And")
	}
	if mustEval(t, NewAnd(aPos, bPos), trace, 0) {
		t.Fatal("And should fail")
	}
	if !mustEval(t, Or{Fs: []Formula{aPos, bPos}}, trace, 0) {
		t.Fatal("Or should hold")
	}
	if !mustEval(t, Not{bPos}, trace, 0) {
		t.Fatal("Not should hold")
	}
	if !mustEval(t, Implies{L: bPos, R: aPos}, trace, 0) {
		t.Fatal("false antecedent implies anything")
	}
	if mustEval(t, Implies{L: aPos, R: bPos}, trace, 0) {
		t.Fatal("true antecedent, false consequent")
	}
}

// Robustness sign must agree with boolean satisfaction (soundness of the
// quantitative semantics).
func TestRobustnessSignSoundness(t *testing.T) {
	f := func(a, b float64) bool {
		trace := tr(map[string][]float64{"a": {a}, "b": {b}})
		formulas := []Formula{
			Atom{"a", OpGT, 0, 0},
			NewAnd(Atom{"a", OpGT, 0, 0}, Atom{"b", OpLT, 1, 0}),
			Or{Fs: []Formula{Atom{"a", OpLT, -1, 0}, Atom{"b", OpGE, 0, 0}}},
			Not{Atom{"b", OpGT, 0.5, 0}},
			Implies{L: Atom{"a", OpGT, 0, 0}, R: Atom{"b", OpGT, 0, 0}},
		}
		for _, formula := range formulas {
			v, err := formula.Eval(trace, 0)
			if err != nil {
				return false
			}
			r, err := formula.Robustness(trace, 0)
			if err != nil {
				return false
			}
			if r > 0 && !v {
				return false
			}
			if r < 0 && v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEventuallyGlobally(t *testing.T) {
	trace := tr(map[string][]float64{"x": {0, 0, 3, 0, 0}})
	hit := Atom{"x", OpGT, 1, 0}
	if !mustEval(t, Eventually{0, 4, hit}, trace, 0) {
		t.Fatal("F[0,4] should find x=3")
	}
	if mustEval(t, Eventually{0, 1, hit}, trace, 0) {
		t.Fatal("F[0,1] should miss x=3")
	}
	if !mustEval(t, Eventually{1, 2, hit}, trace, 1) {
		t.Fatal("F[1,2] from step 1 covers step 2..3")
	}
	low := Atom{"x", OpLT, 5, 0}
	if !mustEval(t, Globally{0, 4, low}, trace, 0) {
		t.Fatal("G[0,4] x<5 should hold")
	}
	if mustEval(t, Globally{0, 4, Atom{"x", OpLT, 2, 0}}, trace, 0) {
		t.Fatal("G[0,4] x<2 should fail at step 2")
	}
}

func TestTemporalWindowClamping(t *testing.T) {
	trace := tr(map[string][]float64{"x": {1, 1}})
	// Window extends past the trace end: clamped, evaluates available steps.
	if !mustEval(t, Globally{0, 10, Atom{"x", OpGT, 0, 0}}, trace, 0) {
		t.Fatal("clamped G should hold")
	}
	// Window entirely outside: error.
	if _, err := (Eventually{5, 8, Atom{"x", OpGT, 0, 0}}).Eval(trace, 0); err == nil {
		t.Fatal("want error for window beyond trace")
	}
}

func TestUntilSemantics(t *testing.T) {
	trace := tr(map[string][]float64{
		"l": {1, 1, 1, 0, 0},
		"r": {0, 0, 1, 0, 0},
	})
	lHolds := Atom{"l", OpGT, 0.5, 0}
	rHolds := Atom{"r", OpGT, 0.5, 0}
	u := Until{Lo: 0, Hi: 4, L: lHolds, R: rHolds}
	if !mustEval(t, u, trace, 0) {
		t.Fatal("l U r should hold: r fires at 2 with l holding through 0..1")
	}
	// r never fires in [3,4] and l fails immediately.
	u2 := Until{Lo: 0, Hi: 1, L: lHolds, R: rHolds}
	if mustEval(t, u2, trace, 3) {
		t.Fatal("until should fail from step 3")
	}
}

func TestEventuallyRobustnessIsMax(t *testing.T) {
	trace := tr(map[string][]float64{"x": {1, 4, 2}})
	f := Eventually{0, 2, Atom{"x", OpGT, 0, 0}}
	if got := mustRob(t, f, trace, 0); got != 4 {
		t.Fatalf("robustness = %v, want 4 (max margin)", got)
	}
	g := Globally{0, 2, Atom{"x", OpGT, 0, 0}}
	if got := mustRob(t, g, trace, 0); got != 1 {
		t.Fatalf("robustness = %v, want 1 (min margin)", got)
	}
}

func TestParseRoundTrip(t *testing.T) {
	inputs := []string{
		"BG > 150",
		"BG' < 0",
		"IOB' == 0 ~ 0.001",
		"(BG > 150) & (BG' > 0) & (u == 1 ~ 0.5)",
		"(BG < 70) | (BG > 180)",
		"!(u == 3 ~ 0.5)",
		"F[0,6](BG > 180)",
		"G[1,3](BG' <= 0)",
		"(BG > 100) U[0,5] (BG < 70)",
		"(BG > 150) -> (F[0,6](BG > 180))",
		"x >= -2.5",
		"rate != 0 ~ 1e-6",
	}
	for _, in := range inputs {
		f, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		f2, err := Parse(f.String())
		if err != nil {
			t.Fatalf("reparse String()=%q of %q: %v", f.String(), in, err)
		}
		if f2.String() != f.String() {
			t.Fatalf("round trip unstable: %q → %q → %q", in, f.String(), f2.String())
		}
	}
}

func TestParseEvaluatesCorrectly(t *testing.T) {
	trace := tr(map[string][]float64{
		"BG":  {160, 170, 185},
		"BG'": {2, 2, 3},
	})
	f := mustParse("(BG > 150) & (BG' > 0)")
	if !mustEval(t, f, trace, 0) {
		t.Fatal("parsed conjunction should hold")
	}
	g := mustParse("F[0,2](BG > 180)")
	if !mustEval(t, g, trace, 0) {
		t.Fatal("parsed eventually should hold at step 2")
	}
	h := mustParse("G[0,2](BG > 180)")
	if mustEval(t, h, trace, 0) {
		t.Fatal("parsed globally should fail")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"BG >",
		"> 5",
		"BG > 5 &",
		"(BG > 5",
		"F[2,1](BG > 5)",
		"F[0,1when](BG>5)",
		"BG ? 5",
		"BG > 5 extra",
		"G[0,1]",
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
	}
}

// mustParse is Parse that panics on error.
func mustParse(input string) Formula {
	f, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return f
}

func TestMustParsePanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mustParse should panic")
		}
	}()
	mustParse("not a formula !!!")
}

func ctx(bg, dbg, diob float64, a controller.Action) Trace {
	return ContextTrace(bg, dbg, diob, a)
}

func TestAPSRulesTableI(t *testing.T) {
	rules := APSRules(140)
	tests := []struct {
		name      string
		trace     Trace
		wantFired []int
	}{
		{
			// BG high and rising, IOB falling, controller decreases insulin
			// → rule 1 (H2).
			"rule1", ctx(200, 1.5, -0.01, controller.ActionDecrease), []int{1},
		},
		{
			// Same but IOB flat → rule 2.
			"rule2", ctx(200, 1.5, 0, controller.ActionDecrease), []int{2},
		},
		{
			"rule3", ctx(200, -1.5, 0.01, controller.ActionDecrease), []int{3},
		},
		{
			"rule4", ctx(200, -1.5, -0.01, controller.ActionDecrease), []int{4},
		},
		{
			"rule5", ctx(200, -1.5, 0, controller.ActionDecrease), []int{5},
		},
		{
			// BG low and falling, IOB rising, controller increases insulin
			// → rule 6 (H1).
			"rule6", ctx(90, -1.5, 0.01, controller.ActionIncrease), []int{6},
		},
		{
			"rule7", ctx(90, -1.5, -0.01, controller.ActionIncrease), []int{7},
		},
		{
			"rule8", ctx(90, -1.5, 0, controller.ActionIncrease), []int{8},
		},
		{
			// BG high with insulin stopped → rule 9.
			"rule9", ctx(200, 0.5, 0.002, controller.ActionStop), []int{9},
		},
		{
			// Hypoglycemic but insulin still flowing → rule 10.
			"rule10", ctx(65, 0.1, 0.002, controller.ActionKeep), []int{10},
		},
		{
			// BG high and rising, IOB not rising, rate kept → rule 11.
			"rule11", ctx(200, 1.5, -0.01, controller.ActionKeep), []int{11},
		},
		{
			// BG low and falling, IOB not falling, rate kept → rule 12.
			"rule12", ctx(100, -1.5, 0.01, controller.ActionKeep), []int{12},
		},
		{
			// Nominal context: nothing fires.
			"safe", ctx(120, 0.2, 0, controller.ActionKeep), nil,
		},
		{
			// BG high & rising with IOB rising and increase action: the
			// controller is doing the right thing; no rule fires.
			"correct response", ctx(200, 1.5, 0.01, controller.ActionIncrease), nil,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			unsafe, fired, err := EvalRules(rules, tt.trace, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(tt.wantFired) == 0 {
				if unsafe {
					t.Fatalf("rules fired unexpectedly: %v", fired)
				}
				return
			}
			if !unsafe {
				t.Fatalf("no rule fired, want %v", tt.wantFired)
			}
			got := strings.Trim(strings.Join(strings.Fields(sprintInts(fired)), ","), "[]")
			want := strings.Trim(strings.Join(strings.Fields(sprintInts(tt.wantFired)), ","), "[]")
			if got != want {
				t.Fatalf("fired %v, want %v", fired, tt.wantFired)
			}
		})
	}
}

func sprintInts(v []int) string {
	var sb strings.Builder
	sb.WriteString("[")
	for i, x := range v {
		if i > 0 {
			sb.WriteString(" ")
		}
		sb.WriteString(string(rune('0' + x/10)))
		sb.WriteString(string(rune('0' + x%10)))
	}
	sb.WriteString("]")
	return sb.String()
}

func TestRulesRespectBGT(t *testing.T) {
	// With a higher target, the same context stops being flagged.
	low := APSRules(140)
	high := APSRules(250)
	trace := ctx(200, 1.5, -0.01, controller.ActionDecrease)
	fired1, _, err := EvalRules(low, trace, 0)
	if err != nil {
		t.Fatal(err)
	}
	fired2, _, err := EvalRules(high, trace, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !fired1 || fired2 {
		t.Fatalf("BGT parameterization broken: low %v high %v", fired1, fired2)
	}
}

func TestRulesMutuallyExclusiveIOBBranches(t *testing.T) {
	// For a high-rising-BG decrease action, exactly one of rules 1/2 fires
	// depending on the IOB trend, never both.
	rules := APSRules(140)
	for _, diob := range []float64{-0.5, -0.002, 0, 0.0005, 0.002, 0.5} {
		_, fired, err := EvalRules(rules, ctx(200, 2, diob, controller.ActionDecrease), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(fired) > 1 {
			t.Fatalf("dIOB=%v fired %v, want at most one rule", diob, fired)
		}
	}
}

func TestHazardString(t *testing.T) {
	if H1.String() != "H1(hypoglycemia)" || H2.String() != "H2(hyperglycemia)" {
		t.Fatal("hazard strings")
	}
	if !strings.Contains(Hazard(9).String(), "9") {
		t.Fatal("unknown hazard string")
	}
}

func TestCmpOpString(t *testing.T) {
	ops := map[CmpOp]string{OpGT: ">", OpGE: ">=", OpLT: "<", OpLE: "<=", OpEQ: "==", OpNE: "!="}
	for op, s := range ops {
		if op.String() != s {
			t.Errorf("%d.String() = %q want %q", int(op), op.String(), s)
		}
	}
}

func TestMapTraceLen(t *testing.T) {
	m := &MapTrace{Signals: map[string][]float64{"a": {1, 2}, "b": {1, 2, 3}}}
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3", m.Len())
	}
	if _, ok := m.Value("a", 2); ok {
		t.Fatal("short signal should miss at step 2")
	}
	if v, ok := m.Value("b", 2); !ok || v != 3 {
		t.Fatalf("Value(b,2) = %v,%v", v, ok)
	}
}

func TestRobustnessMarginMeaning(t *testing.T) {
	// The robustness of BG > 180 at BG = 200 is exactly 20 — the amount BG
	// can be perturbed before the verdict flips.
	trace := ctx(200, 0, 0, controller.ActionKeep)
	if got := mustRob(t, Atom{SignalBG, OpGT, 180, 0}, trace, 0); got != 20 {
		t.Fatalf("margin = %v, want 20", got)
	}
}

func TestParsePrecedence(t *testing.T) {
	// & binds tighter than |, which binds tighter than ->.
	trace := tr(map[string][]float64{"a": {1}, "b": {-1}, "c": {1}})
	// a>0 & b>0 | c>0  ≡  (a&b) | c  → true. If parsed a & (b|c) it is also
	// true, so use a discriminating assignment: a=1 b=-1 c=1.
	f := mustParse("a > 0 & b > 0 | c > 0")
	or, ok := f.(Or)
	if !ok {
		t.Fatalf("top-level connective = %T, want Or", f)
	}
	if len(or.Fs) != 2 {
		t.Fatalf("or arity = %d", len(or.Fs))
	}
	if !mustEval(t, f, trace, 0) {
		t.Fatal("(a&b)|c should hold")
	}
	// Arrow is top level.
	g := mustParse("a > 0 & b > 0 -> c > 0")
	if _, ok := g.(Implies); !ok {
		t.Fatalf("top-level connective = %T, want Implies", g)
	}
}

func TestParseNotBindsTightly(t *testing.T) {
	trace := tr(map[string][]float64{"a": {1}, "b": {1}})
	f := mustParse("!a > 0 & b > 0") // (!a>0) & (b>0) → false
	if mustEval(t, f, trace, 0) {
		t.Fatal("! must bind to the atom, not the conjunction")
	}
}

func TestTemporalRobustnessSoundness(t *testing.T) {
	// Property: for temporal formulas too, sign(robustness) agrees with Eval.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6
		sig := make([]float64, n)
		for i := range sig {
			sig[i] = rng.NormFloat64() * 2
		}
		trace := tr(map[string][]float64{"x": sig})
		formulas := []Formula{
			Eventually{0, n - 1, Atom{"x", OpGT, 0, 0}},
			Globally{0, n - 1, Atom{"x", OpLT, 1, 0}},
			Until{0, n - 1, Atom{"x", OpGT, -3, 0}, Atom{"x", OpGT, 1, 0}},
		}
		for _, formula := range formulas {
			v, err := formula.Eval(trace, 0)
			if err != nil {
				return false
			}
			r, err := formula.Robustness(trace, 0)
			if err != nil {
				return false
			}
			if r > 0 && !v {
				return false
			}
			if r < 0 && v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGloballyEventuallyDuality(t *testing.T) {
	// G[a,b] φ ≡ ¬F[a,b] ¬φ, both boolean and quantitative.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sig := make([]float64, 5)
		for i := range sig {
			sig[i] = rng.NormFloat64()
		}
		trace := tr(map[string][]float64{"x": sig})
		phi := Atom{"x", OpGT, 0, 0}
		g := Globally{0, 4, phi}
		dual := Not{Eventually{0, 4, Not{phi}}}
		gv, err1 := g.Eval(trace, 0)
		dv, err2 := dual.Eval(trace, 0)
		gr, err3 := g.Robustness(trace, 0)
		dr, err4 := dual.Robustness(trace, 0)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return false
		}
		return gv == dv && math.Abs(gr-dr) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNestedTemporalFormulas(t *testing.T) {
	// F[0,4](G[0,1](x > 0)): somewhere in the next 5 steps, x stays positive
	// for 2 consecutive steps.
	trace := tr(map[string][]float64{"x": {-1, 1, -1, 1, 1, -1}})
	f := mustParse("F[0,4](G[0,1](x > 0))")
	if !mustEval(t, f, trace, 0) {
		t.Fatal("should find the positive pair at steps 3-4")
	}
	trace2 := tr(map[string][]float64{"x": {-1, 1, -1, 1, -1, 1}})
	if mustEval(t, f, trace2, 0) {
		t.Fatal("no 2-step positive stretch exists")
	}
}

func TestDeltaBGDeadbandInRules(t *testing.T) {
	rules := APSRules(140)
	// A noise-level BG trend (+0.1 mg/dL/min) must not count as "rising".
	unsafe, _, err := EvalRules(rules, ctx(200, 0.1, -0.01, controller.ActionDecrease), 0)
	if err != nil {
		t.Fatal(err)
	}
	if unsafe {
		t.Fatal("noise-level trend fired a trend rule")
	}
	// A real trend does.
	unsafe, _, err = EvalRules(rules, ctx(200, 0.5, -0.01, controller.ActionDecrease), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !unsafe {
		t.Fatal("real trend did not fire rule 1")
	}
}

func TestFromCSV(t *testing.T) {
	csv := `# a comment line
step,bg,action,fault
0,100.5,keep_insulin,false
1,105.0,increase_insulin,true
2,110.25,keep_insulin,false
`
	trace, err := FromCSV(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if trace.Len() != 3 {
		t.Fatalf("Len = %d, want 3", trace.Len())
	}
	if v, ok := trace.Value("bg", 2); !ok || v != 110.25 {
		t.Fatalf("bg[2] = %v, %v", v, ok)
	}
	// Boolean columns are mapped to 0/1.
	if v, ok := trace.Value("fault", 1); !ok || v != 1 {
		t.Fatalf("fault[1] = %v, %v", v, ok)
	}
	// The string column is dropped.
	if _, ok := trace.Value("action", 0); ok {
		t.Fatal("string column should be dropped")
	}
	// And formulas evaluate against it.
	f := mustParse("F[0,2](bg > 109)")
	ok, err := f.Eval(trace, 0)
	if err != nil || !ok {
		t.Fatalf("eval = %v, %v", ok, err)
	}
}

func TestFromCSVErrors(t *testing.T) {
	if _, err := FromCSV(strings.NewReader("")); err == nil {
		t.Fatal("want error for empty input")
	}
	if _, err := FromCSV(strings.NewReader("a,b\n")); err == nil {
		t.Fatal("want error for header-only input")
	}
	if _, err := FromCSV(strings.NewReader("a\nx\ny\n")); err == nil {
		t.Fatal("want error when no column is numeric")
	}
}

// FuzzFromCSV feeds arbitrary text to the trace reader stlcheck loads
// apsim -csv exports with. It may reject the text, but never panic, and a
// trace it returns holds at least one signal, every one of them a value
// per data row. Seeds: the TestFromCSV export and the TestFromCSVErrors
// inputs, plus ragged, quoted and non-finite rows.
func FuzzFromCSV(f *testing.F) {
	for _, in := range []string{
		"# a comment line\nstep,bg,action,fault\n0,100.5,keep_insulin,false\n1,105.0,increase_insulin,true\n2,110.25,keep_insulin,false\n",
		"", "a,b\n", "a\nx\ny\n",
		"a,b\n1,2\n3\n", "a,b\n1,2,3\n", "\"a\",b\n\"1\",NaN\n-Inf,+Inf\n", "a\n1e400\n0x1p-2\n",
	} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := FromCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		if len(tr.Signals) == 0 || tr.Len() < 1 {
			t.Fatalf("accepted a trace with %d signals and %d steps", len(tr.Signals), tr.Len())
		}
		for name, s := range tr.Signals {
			if len(s) != tr.Len() {
				t.Fatalf("signal %q has %d values, the trace %d steps", name, len(s), tr.Len())
			}
		}
	})
}

// FuzzParse feeds arbitrary text to the formula parser. It must never
// panic, and a formula it accepts must print as text that parses back to
// the same formula (the round trip TestParseRoundTrip pins on fixed
// inputs, which seed the corpus along with the Table I rules).
func FuzzParse(f *testing.F) {
	for _, in := range []string{
		"BG > 150", "BG' < 0", "IOB' == 0 ~ 0.001", "!(u == 3 ~ 0.5)",
		"(BG < 70) | (BG > 180)", "F[0,6](BG > 180)", "G[1,3](BG' <= 0)",
		"(BG > 100) U[0,5] (BG < 70)", "(BG > 150) -> (F[0,6](BG > 180))",
		"x >= -2.5", "rate != 0 ~ 1e-6", "BG >", "((BG > 1)", "F[3,1](x > 0)",
	} {
		f.Add(in)
	}
	for _, r := range APSRules(120) {
		f.Add(r.Formula.String())
	}
	f.Fuzz(func(t *testing.T, in string) {
		g, err := Parse(in)
		if err != nil {
			return
		}
		g2, err := Parse(g.String())
		if err != nil {
			t.Fatalf("String()=%q of %q does not parse: %v", g.String(), in, err)
		}
		if g2.String() != g.String() {
			t.Fatalf("round trip unstable: %q → %q → %q", in, g.String(), g2.String())
		}
	})
}
