package monitor

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
)

// TestFrozenTwinSurvivesSaveLoad pins the serialization contract of the f32
// fast path: Save persists only the canonical f64 model — freezing before a
// save must not change the bytes — and a loaded monitor rebuilds its frozen
// twin lazily on first f32 use, reproducing the original twin's verdicts
// exactly (both twins quantize the same f64 weights).
func TestFrozenTwinSurvivesSaveLoad(t *testing.T) {
	train, test := campaignSplits(t, dataset.Glucosym)
	sub := test.Samples[:40]
	for _, arch := range []Arch{ArchMLP, ArchLSTM} {
		orig, err := Train(train, smallTrainCfg(arch, false))
		if err != nil {
			t.Fatal(err)
		}

		// Snapshot the save bytes before any freeze happens.
		var before bytes.Buffer
		if err := orig.Save(&before); err != nil {
			t.Fatalf("Save before freeze: %v", err)
		}
		co, po := classifyF32(t, orig, sub)
		if orig.frozen == nil {
			t.Fatalf("%s: classifying at F32 did not build the frozen twin", orig.Name())
		}
		var after bytes.Buffer
		if err := orig.Save(&after); err != nil {
			t.Fatalf("Save after freeze: %v", err)
		}
		if !bytes.Equal(before.Bytes(), after.Bytes()) {
			t.Fatalf("%s: freezing changed the save bytes — the twin must never be serialized", orig.Name())
		}

		loaded, err := Load(&after)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		if loaded.frozen != nil {
			t.Fatalf("%s: loaded monitor has an eager frozen twin, want lazy rebuild", orig.Name())
		}
		cl, pl := classifyF32(t, loaded, sub)
		if loaded.frozen == nil {
			t.Fatalf("%s: loaded monitor did not rebuild the frozen twin", orig.Name())
		}
		for i := range co {
			if co[i] != cl[i] || po[i] != pl[i] {
				t.Fatalf("%s: f32 verdict %d differs after round trip: class %d conf %v vs class %d conf %v",
					orig.Name(), i, co[i], po[i], cl[i], pl[i])
			}
		}
	}
}

// classifyF32 classifies samples through m's frozen float32 twin.
func classifyF32(t *testing.T, m *MLMonitor, samples []dataset.Sample) ([]int, []float64) {
	t.Helper()
	x, err := m.InputMatrix(samples)
	if err != nil {
		t.Fatal(err)
	}
	classes, conf := make([]int, x.Rows()), make([]float64, x.Rows())
	if err := m.ClassifyInto(F32, x, classes, conf); err != nil {
		t.Fatal(err)
	}
	return classes, conf
}

// TestClassifyMatrixF32AgreesWithF64 sanity-checks the f32 fast path against
// the canonical f64 monitor on real campaign windows: classes may flip only
// where float32 rounding crosses the decision boundary, which is rare.
func TestClassifyMatrixF32AgreesWithF64(t *testing.T) {
	train, test := campaignSplits(t, dataset.Glucosym)
	for _, arch := range []Arch{ArchMLP, ArchLSTM} {
		m, err := Train(train, smallTrainCfg(arch, true))
		if err != nil {
			t.Fatal(err)
		}
		x, err := m.InputMatrix(test.Samples)
		if err != nil {
			t.Fatal(err)
		}
		p64, err := m.PredictClasses(x)
		if err != nil {
			t.Fatal(err)
		}
		p32 := make([]int, x.Rows())
		if err := m.ClassifyInto(F32, x, p32, nil); err != nil {
			t.Fatal(err)
		}
		flips := 0
		for i := range p64 {
			if p64[i] != p32[i] {
				flips++
			}
		}
		if frac := float64(flips) / float64(len(p64)); frac > 0.01 {
			t.Fatalf("%s: f32 flips %d/%d predictions (%.2f%%), want <= 1%%",
				m.Name(), flips, len(p64), 100*frac)
		}
	}
}
