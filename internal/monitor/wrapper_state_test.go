package monitor

import "testing"

func TestMOfNUpdateSemantics(t *testing.T) {
	for _, mn := range [][2]int{{0, 3}, {4, 3}, {1, 0}} {
		if _, err := NewMOfN(mn[0], mn[1]); err == nil {
			t.Fatalf("want error for m=%d n=%d", mn[0], mn[1])
		}
	}
	const T, F = true, false
	for _, tc := range []struct {
		name      string
		m, n      int
		seq, want []bool
	}{
		{"mixed", 2, 3, []bool{T, F, T, T, F, F, F}, []bool{F, F, T, T, T, F, F}},
		// Isolated unsafe verdicts among safe ones never alarm.
		{"flicker suppressed", 2, 3,
			[]bool{T, F, F, T, F, F, T, F, F, T, F, F},
			[]bool{F, F, F, F, F, F, F, F, F, F, F, F}},
		// A sustained alarm passes from the first step that can satisfy m.
		{"sustained alarm", 2, 3, []bool{T, T, T, T, T}, []bool{F, T, T, T, T}},
	} {
		f, err := NewMOfN(tc.m, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		for i, u := range tc.seq {
			if got := f.Update(u); got != tc.want[i] {
				t.Fatalf("%s: step %d: Update(%t) = %t, want %t", tc.name, i, u, got, tc.want[i])
			}
		}
	}
}

func TestMOfNResetAndClone(t *testing.T) {
	const T, F = true, false
	// Each episode runs on a fresh Clone of one idle prototype, as each
	// serving session does: history never leaks across a boundary.
	for _, tc := range []struct {
		name           string
		m, n           int
		episodes, want [][]bool
	}{
		{"single unsafe per episode", 2, 2, [][]bool{{T}, {T}}, [][]bool{{F}, {F}}},
		{"trailing alarm does not leak", 2, 2,
			[][]bool{{F, F, T, T}, {F, F}}, [][]bool{{F, F, F, T}, {F, F}}},
	} {
		proto, err := NewMOfN(tc.m, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		for e, ep := range tc.episodes {
			f := proto.Clone()
			for i, u := range ep {
				if got := f.Update(u); got != tc.want[e][i] {
					t.Fatalf("%s: episode %d step %d: Update(%t) = %t, want %t", tc.name, e, i, u, got, tc.want[e][i])
				}
			}
		}
	}

	f, err := NewMOfN(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	f.Update(true)
	// Clone must copy the rolling state and then diverge independently.
	c := f.Clone()
	if got := c.Update(true); !got {
		t.Fatal("clone lost the copied history: 2-of-2 should alarm")
	}
	if got := f.Update(false); got {
		t.Fatal("original contaminated by clone updates")
	}
}

func TestCUSUMDriftDetection(t *testing.T) {
	if _, err := NewCUSUM(-0.1, 1); err == nil {
		t.Fatal("want error for negative allowance")
	}
	if _, err := NewCUSUM(0.5, 0); err == nil {
		t.Fatal("want error for non-positive threshold")
	}
	proto, err := NewCUSUM(0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := proto.Clone()
	// Nominal traffic (p below the allowance) never accumulates.
	for i := 0; i < 100; i++ {
		if c.Update(0.2) {
			t.Fatalf("alarm on nominal traffic at step %d", i)
		}
	}
	if c.s != 0 {
		t.Fatalf("statistic drifted to %g on nominal traffic", c.s)
	}
	// Sustained sub-threshold drift (p = 0.9, never a hard verdict flip on
	// its own) accumulates 0.4 per step and alarms once S exceeds 1.
	steps := 1
	for !c.Update(0.9) {
		steps++
		if steps > 10 {
			t.Fatal("drift never detected")
		}
	}
	if steps != 3 {
		t.Fatalf("alarm after %d sub-threshold steps, want 3", steps)
	}
	clone := c.Clone()
	if proto.Clone().Update(0.9) {
		t.Fatal("a clone of the idle prototype carried state")
	}
	if !clone.Update(0.9) {
		t.Fatal("clone lost the accumulated statistic")
	}
}
