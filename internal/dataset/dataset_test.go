package dataset

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/sim"
)

func smallCampaign(t *testing.T, s Simulator) *Dataset {
	t.Helper()
	ds, err := Generate(CampaignConfig{
		Simulator:          s,
		Profiles:           4,
		EpisodesPerProfile: 2,
		Steps:              80,
		Seed:               1,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return ds
}

func TestGenerateShapes(t *testing.T) {
	ds := smallCampaign(t, Glucosym)
	wantEpisodes := 4 * 2
	if len(ds.EpisodeIndex) != wantEpisodes {
		t.Fatalf("episodes = %d, want %d", len(ds.EpisodeIndex), wantEpisodes)
	}
	wantSamples := wantEpisodes * (80 - 6 + 1)
	if ds.Len() != wantSamples {
		t.Fatalf("samples = %d, want %d", ds.Len(), wantSamples)
	}
	s := ds.Samples[0]
	if len(s.MLP) != MLPFeatureCount {
		t.Fatalf("MLP features = %d, want %d", len(s.MLP), MLPFeatureCount)
	}
	if len(s.Seq) != 6*SeqFeatureCount {
		t.Fatalf("Seq features = %d, want %d", len(s.Seq), 6*SeqFeatureCount)
	}
}

func TestLabelsMatchFutureHazards(t *testing.T) {
	cfg := CampaignConfig{
		Simulator:          Glucosym,
		Profiles:           2,
		EpisodesPerProfile: 2,
		Steps:              100,
		Seed:               3,
	}
	traces, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := FromTraces(traces, 6, 6, 140)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ds.Samples {
		recs := traces[s.EpisodeID].Records
		want := 0
		for h := s.Step; h <= s.Step+6 && h < len(recs); h++ {
			if recs[h].Hazard {
				want = 1
				break
			}
		}
		if s.Label != want {
			t.Fatalf("episode %d step %d label %d, want %d", s.EpisodeID, s.Step, s.Label, want)
		}
	}
}

func TestKnowledgeIndicatorConsistency(t *testing.T) {
	ds := smallCampaign(t, Glucosym)
	// The indicator is binary and correlates with unsafe labels better than
	// chance (rules encode hazard-leading contexts).
	var k0, k1 int
	for _, s := range ds.Samples {
		if s.Knowledge != 0 && s.Knowledge != 1 {
			t.Fatalf("knowledge %v not binary", s.Knowledge)
		}
		if s.Knowledge == 1 {
			k1++
		} else {
			k0++
		}
	}
	if k1 == 0 {
		t.Fatal("no sample satisfied any safety rule — rules or campaign broken")
	}
}

func TestSplitByEpisode(t *testing.T) {
	ds := smallCampaign(t, Glucosym)
	train, test, err := ds.Split(0.75)
	if err != nil {
		t.Fatal(err)
	}
	if len(train.EpisodeIndex) != 6 || len(test.EpisodeIndex) != 2 {
		t.Fatalf("split episodes = %d/%d, want 6/2", len(train.EpisodeIndex), len(test.EpisodeIndex))
	}
	if train.Len()+test.Len() != ds.Len() {
		t.Fatalf("split loses samples: %d + %d != %d", train.Len(), test.Len(), ds.Len())
	}
	if train.MLPNorm == nil || train.SeqNorm == nil {
		t.Fatal("train normalizers not fit")
	}
	if test.MLPNorm != train.MLPNorm || test.SeqNorm != train.SeqNorm {
		t.Fatal("test must inherit train normalizers")
	}
	// Episode indices must be self-consistent after the split.
	for _, d := range []*Dataset{train, test} {
		for ep, r := range d.EpisodeIndex {
			if r[0] >= r[1] || r[1] > d.Len() {
				t.Fatalf("episode %d range %v invalid", ep, r)
			}
		}
	}
}

func TestSplitValidation(t *testing.T) {
	ds := smallCampaign(t, Glucosym)
	for _, frac := range []float64{0, 1, -0.5, 1.5} {
		if _, _, err := ds.Split(frac); err == nil {
			t.Errorf("Split(%v) should fail", frac)
		}
	}
}

// normalizeRows standardizes every row of x in place.
func normalizeRows(t *testing.T, n *Normalizer, x *mat.Matrix) {
	t.Helper()
	for i := 0; i < x.Rows(); i++ {
		if err := n.ApplyRowInto(x.Row(i), x.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNormalizerRoundTrip(t *testing.T) {
	x, err := mat.FromRows([][]float64{{1, 10}, {2, 20}, {3, 30}})
	if err != nil {
		t.Fatal(err)
	}
	orig := x.Clone()
	n := NewNormalizer(x)
	normalizeRows(t, n, x)
	n.Invert(x)
	if !mat.Equal(x, orig, 1e-9) {
		t.Fatal("ApplyRowInto/Invert must round-trip")
	}
}

func TestNormalizerConstantColumn(t *testing.T) {
	x, err := mat.FromRows([][]float64{{5, 1}, {5, 2}, {5, 3}})
	if err != nil {
		t.Fatal(err)
	}
	n := NewNormalizer(x)
	normalizeRows(t, n, x)
	for i := 0; i < 3; i++ {
		if x.At(i, 0) != 0 {
			t.Fatalf("constant column should normalize to 0, got %v", x.At(i, 0))
		}
	}
}

func TestNormalizerApplyRow(t *testing.T) {
	n := &Normalizer{Mean: []float64{1, 2}, Std: []float64{2, 4}}
	out := make([]float64, 2)
	if err := n.ApplyRowInto(out, []float64{3, 10}); err != nil {
		t.Fatal(err)
	}
	if out[0] != 1 || out[1] != 2 {
		t.Fatalf("ApplyRowInto = %v, want [1 2]", out)
	}
	if err := n.ApplyRowInto(out[:1], []float64{1}); err == nil {
		t.Fatal("want error for length mismatch")
	}
	if err := n.ApplyRowInto(out[:1], []float64{3, 10}); err == nil {
		t.Fatal("want error for a short destination")
	}
}

func TestSeqNormalizerSharedAcrossSteps(t *testing.T) {
	ds := smallCampaign(t, Glucosym)
	train, _, err := ds.Split(0.75)
	if err != nil {
		t.Fatal(err)
	}
	n := train.SeqNorm
	for st := 1; st < 6; st++ {
		for f := 0; f < SeqFeatureCount; f++ {
			if n.Mean[st*SeqFeatureCount+f] != n.Mean[f] || n.Std[st*SeqFeatureCount+f] != n.Std[f] {
				t.Fatalf("seq normalizer differs across steps at step %d feature %d", st, f)
			}
		}
	}
}

func TestUnsafeFractionPlausible(t *testing.T) {
	// The paper's datasets are ~34–39% faulty samples. With half the
	// episodes faulted we should land in a broad band around that.
	for _, simu := range []Simulator{Glucosym, T1DS} {
		ds := smallCampaign(t, simu)
		frac := ds.UnsafeFraction()
		if frac < 0.08 || frac > 0.7 {
			t.Fatalf("%v unsafe fraction = %v, outside plausible band", simu, frac)
		}
	}
}

func TestSensorDims(t *testing.T) {
	if got := SensorDimsMLP(); len(got) != 6 {
		t.Fatalf("MLP sensor dims = %v", got)
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a := smallCampaign(t, Glucosym)
	b := smallCampaign(t, Glucosym)
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := range a.Samples {
		if a.Samples[i].Label != b.Samples[i].Label || a.Samples[i].MLP[0] != b.Samples[i].MLP[0] {
			t.Fatalf("sample %d differs between identical campaigns", i)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(CampaignConfig{Simulator: Simulator(99)}); err == nil {
		t.Fatal("want error for unknown simulator")
	}
	if _, err := FromTraces(nil, 6, 6, 140); err == nil {
		t.Fatal("want error for no traces")
	}
	tr := &sim.Trace{}
	if _, err := FromTraces([]*sim.Trace{tr}, 1, 6, 140); err == nil {
		t.Fatal("want error for window < 2")
	}
	if _, err := FromTraces([]*sim.Trace{tr}, 6, 0, 140); err == nil {
		t.Fatal("want error for horizon < 1")
	}
}

func TestRegressionSlopeOnLinearSignal(t *testing.T) {
	recs := make([]sim.Record, 6)
	for i := range recs {
		recs[i].CGM = 100 + 2*float64(i)*5 // +2 mg/dL per minute at 5-min steps
	}
	_, _, _, got, _ := windowFeatures(recs, 5, 6, 5)
	if math.Abs(got-2) > 1e-9 {
		t.Fatalf("slope = %v, want 2", got)
	}
}
