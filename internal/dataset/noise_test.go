package dataset

import (
	"math"
	"math/rand"
	"testing"
)

func noisyFixture(t *testing.T) *Dataset {
	t.Helper()
	ds, err := Generate(CampaignConfig{
		Simulator:          Glucosym,
		Profiles:           3,
		EpisodesPerProfile: 2,
		Steps:              80,
		Seed:               9,
	})
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := ds.Split(0.75)
	if err != nil {
		t.Fatal(err)
	}
	_ = train
	return test
}

func TestGaussianNoisySamplesZeroSigmaIdentity(t *testing.T) {
	test := noisyFixture(t)
	rng := rand.New(rand.NewSource(1))
	noisy, err := GaussianNoisySamples(rng, test, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, ns := range noisy {
		s := test.Samples[i]
		for j := range s.Seq {
			if ns.Seq[j] != s.Seq[j] {
				t.Fatalf("sample %d seq[%d] changed at σ=0", i, j)
			}
		}
		for j := range s.MLP {
			if math.Abs(ns.MLP[j]-s.MLP[j]) > 1e-9 {
				t.Fatalf("sample %d mlp[%d] changed at σ=0: %v vs %v", i, j, ns.MLP[j], s.MLP[j])
			}
		}
	}
}

func TestGaussianNoisySamplesCommandsUntouched(t *testing.T) {
	test := noisyFixture(t)
	rng := rand.New(rand.NewSource(2))
	noisy, err := GaussianNoisySamples(rng, test, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for i, ns := range noisy {
		s := test.Samples[i]
		for st := 0; st < test.Window; st++ {
			base := st * SeqFeatureCount
			if ns.Seq[base+SeqFeatRate] != s.Seq[base+SeqFeatRate] {
				t.Fatalf("sample %d step %d: rate perturbed by Gaussian noise", i, st)
			}
			if ns.Seq[base+SeqFeatAction] != s.Seq[base+SeqFeatAction] {
				t.Fatalf("sample %d step %d: action perturbed by Gaussian noise", i, st)
			}
		}
		if ns.MLP[MLPFeatMeanRate] != s.MLP[MLPFeatMeanRate] || ns.MLP[MLPFeatAction] != s.MLP[MLPFeatAction] {
			t.Fatalf("sample %d: command aggregates perturbed", i)
		}
		// Labels and provenance must be preserved.
		if ns.Label != s.Label || ns.EpisodeID != s.EpisodeID || ns.Step != s.Step {
			t.Fatalf("sample %d: metadata changed", i)
		}
	}
}

func TestGaussianNoisySamplesPerturbsSensors(t *testing.T) {
	test := noisyFixture(t)
	rng := rand.New(rand.NewSource(3))
	noisy, err := GaussianNoisySamples(rng, test, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for i, ns := range noisy {
		if ns.Seq[SeqFeatBG] != test.Samples[i].Seq[SeqFeatBG] {
			changed++
		}
	}
	if changed < len(noisy)/2 {
		t.Fatalf("only %d/%d samples perturbed", changed, len(noisy))
	}
}

func TestGaussianNoisySamplesAggregatesConsistent(t *testing.T) {
	// The recomputed MLP mean must equal the mean of the noisy per-step BG.
	test := noisyFixture(t)
	rng := rand.New(rand.NewSource(4))
	noisy, err := GaussianNoisySamples(rng, test, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	for i, ns := range noisy {
		var sum float64
		for st := 0; st < test.Window; st++ {
			sum += ns.Seq[st*SeqFeatureCount+SeqFeatBG]
		}
		want := sum / float64(test.Window)
		if math.Abs(ns.MLP[MLPFeatMeanBG]-want) > 1e-9 {
			t.Fatalf("sample %d mean BG %v, want %v", i, ns.MLP[MLPFeatMeanBG], want)
		}
		last := ns.Seq[(test.Window-1)*SeqFeatureCount+SeqFeatBG]
		if ns.MLP[MLPFeatLastBG] != last {
			t.Fatalf("sample %d last BG %v, want %v", i, ns.MLP[MLPFeatLastBG], last)
		}
		// Rule-context follows the noisy aggregates.
		if ns.BG != ns.MLP[MLPFeatMeanBG] || ns.DeltaBG != ns.MLP[MLPFeatSlopeBG] {
			t.Fatalf("sample %d: rule context not recomputed", i)
		}
	}
}

func TestGaussianNoisySamplesNoiseScale(t *testing.T) {
	test := noisyFixture(t)
	rng := rand.New(rand.NewSource(5))
	sigma := 0.5
	noisy, err := GaussianNoisySamples(rng, test, sigma)
	if err != nil {
		t.Fatal(err)
	}
	bgStd := test.SeqNorm.Std[SeqFeatBG]
	var sq float64
	var n int
	for i, ns := range noisy {
		for st := 0; st < test.Window; st++ {
			d := ns.Seq[st*SeqFeatureCount+SeqFeatBG] - test.Samples[i].Seq[st*SeqFeatureCount+SeqFeatBG]
			sq += d * d
			n++
		}
	}
	got := math.Sqrt(sq / float64(n))
	want := sigma * bgStd
	if math.Abs(got-want) > 0.1*want {
		t.Fatalf("noise std %v, want ≈ %v", got, want)
	}
}

func TestGaussianNoisySamplesValidation(t *testing.T) {
	test := noisyFixture(t)
	rng := rand.New(rand.NewSource(6))
	if _, err := GaussianNoisySamples(rng, test, -1); err == nil {
		t.Fatal("want error for negative sigma")
	}
	noNorm := *test
	noNorm.SeqNorm = nil
	if _, err := GaussianNoisySamples(rng, &noNorm, 0.5); err == nil {
		t.Fatal("want error without SeqNorm")
	}
}

func TestGaussianNoisySamplesDoesNotMutateOriginal(t *testing.T) {
	test := noisyFixture(t)
	before := append([]float64(nil), test.Samples[0].Seq...)
	rng := rand.New(rand.NewSource(7))
	if _, err := GaussianNoisySamples(rng, test, 1.0); err != nil {
		t.Fatal(err)
	}
	for j, v := range test.Samples[0].Seq {
		if v != before[j] {
			t.Fatal("original samples mutated")
		}
	}
}

func TestSliceSlope(t *testing.T) {
	// column lays vals out as feature SeqFeatIOB of consecutive window rows.
	column := func(vals ...float64) []float64 {
		seq := make([]float64, len(vals)*SeqFeatureCount)
		for i, v := range vals {
			seq[i*SeqFeatureCount+SeqFeatIOB] = v
		}
		return seq
	}
	if got := seqSlope(column(0, 2, 4, 6), SeqFeatIOB, 1); math.Abs(got-2) > 1e-12 {
		t.Fatalf("slope = %v, want 2", got)
	}
	if got := seqSlope(column(5), SeqFeatIOB, 1); got != 0 {
		t.Fatalf("single-point slope = %v, want 0", got)
	}
	if got := seqSlope(column(3, 3, 3), SeqFeatIOB, 5); math.Abs(got) > 1e-12 {
		t.Fatalf("flat slope = %v, want 0", got)
	}
}
