package monitor

import (
	"math"
	"testing"

	"repro/internal/artifact"
	"repro/internal/dataset"
)

// quickMonitor trains a one-epoch monitor: enough to own a model of the
// right input width and the split's normalizer.
func quickMonitor(t *testing.T, train *dataset.Dataset, arch Arch) *MLMonitor {
	t.Helper()
	cfg := smallTrainCfg(arch, false)
	cfg.Epochs = 1
	m, err := Train(train, cfg)
	if err != nil {
		t.Fatalf("Train %v: %v", arch, err)
	}
	return m
}

// TestInputMatrixAssembly pins the matrix shape per architecture and that
// every row is AssembleRow of its sample, (v−mean)/std of the sample's
// aggregated features (MLP) or raw window (LSTM), bit for bit.
func TestInputMatrixAssembly(t *testing.T) {
	train, test := campaignSplits(t, dataset.Glucosym)
	for _, tc := range []struct {
		arch  Arch
		width int
		feats func(dataset.Sample) []float64
		norm  *dataset.Normalizer
	}{
		{ArchMLP, dataset.MLPFeatureCount, func(s dataset.Sample) []float64 { return s.MLP }, train.MLPNorm},
		{ArchLSTM, train.Window * dataset.SeqFeatureCount, func(s dataset.Sample) []float64 { return s.Seq }, train.SeqNorm},
	} {
		m := quickMonitor(t, train, tc.arch)
		x, err := m.InputMatrix(test.Samples)
		if err != nil {
			t.Fatal(err)
		}
		if x.Rows() != test.Len() || x.Cols() != tc.width {
			t.Fatalf("%v matrix %dx%d, want %dx%d", tc.arch, x.Rows(), x.Cols(), test.Len(), tc.width)
		}
		if empty, err := m.InputMatrix(nil); err != nil || empty.Rows() != 0 || empty.Cols() != tc.width {
			t.Fatalf("%v empty batch: %v, %v", tc.arch, empty, err)
		}
		row := make([]float64, tc.width)
		for i, s := range test.Samples {
			if err := m.AssembleRow(s, row); err != nil {
				t.Fatal(err)
			}
			for j, v := range tc.feats(s) {
				want := (v - tc.norm.Mean[j]) / tc.norm.Std[j]
				if got := x.At(i, j); math.Float64bits(got) != math.Float64bits(want) || row[j] != got {
					t.Fatalf("%v row %d col %d: matrix %v, AssembleRow %v, want %v", tc.arch, i, j, got, row[j], want)
				}
			}
		}
	}
}

// TestInputMatrixNormalizedStatistics checks the normalized training matrix
// itself: every column has mean ≈ 0 and std ≈ 1 (or 0, for a constant
// column).
func TestInputMatrixNormalizedStatistics(t *testing.T) {
	train, _ := campaignSplits(t, dataset.T1DS)
	x, err := quickMonitor(t, train, ArchMLP).InputMatrix(train.Samples)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < x.Cols(); j++ {
		var mean, sq float64
		for i := 0; i < x.Rows(); i++ {
			mean += x.At(i, j)
		}
		mean /= float64(x.Rows())
		for i := 0; i < x.Rows(); i++ {
			d := x.At(i, j) - mean
			sq += d * d
		}
		std := math.Sqrt(sq / float64(x.Rows()))
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("col %d mean = %v after normalization", j, mean)
		}
		if std > 1e-9 && math.Abs(std-1) > 1e-6 {
			t.Fatalf("col %d std = %v after normalization", j, std)
		}
	}
}

// TestInputMatrixOnMappedViews assembles input matrices from a warm,
// mmap-loaded columnar campaign, whose samples are views into the mapping:
// training (which assembles its matrix the same way) and the test matrix
// must both work and match the heap-loaded copy.
func TestInputMatrixOnMappedViews(t *testing.T) {
	store, err := artifact.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := dataset.CampaignConfig{Simulator: dataset.Glucosym, Profiles: 2, EpisodesPerProfile: 2, Steps: 80, Seed: 3}
	gen := func() (*dataset.Dataset, error) { return dataset.Generate(cfg) }
	cold, _, err := dataset.CachedColumnar(store, cfg.ArtifactKey(), gen, true)
	if err != nil {
		t.Fatal(err)
	}
	warm, hit, err := dataset.CachedColumnar(store, cfg.ArtifactKey(), gen, true)
	if err != nil || !hit {
		t.Fatalf("warm CachedColumnar: hit=%v err=%v", hit, err)
	}
	for _, arch := range []Arch{ArchMLP, ArchLSTM} {
		var xs [2][]float64
		for k, ds := range []*dataset.Dataset{cold, warm} {
			train, test, err := ds.Split(0.75)
			if err != nil {
				t.Fatal(err)
			}
			x, err := quickMonitor(t, train, arch).InputMatrix(test.Samples)
			if err != nil {
				t.Fatalf("%v InputMatrix on dataset %d: %v", arch, k, err)
			}
			xs[k] = x.Data()
		}
		if len(xs[0]) == 0 || len(xs[0]) != len(xs[1]) {
			t.Fatalf("%v: %d and %d inputs", arch, len(xs[0]), len(xs[1]))
		}
		for i := range xs[0] {
			if math.Float64bits(xs[0][i]) != math.Float64bits(xs[1][i]) {
				t.Fatalf("%v input %d: heap %v, mapped %v", arch, i, xs[0][i], xs[1][i])
			}
		}
	}
}
