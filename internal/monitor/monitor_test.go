package monitor

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/controller"
	"repro/internal/dataset"
)

func campaignSplits(t testing.TB, s dataset.Simulator) (*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	ds, err := dataset.Generate(dataset.CampaignConfig{
		Simulator:          s,
		Profiles:           6,
		EpisodesPerProfile: 2,
		Steps:              100,
		Seed:               42,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	train, test, err := ds.Split(0.75)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	return train, test
}

// accuracy of verdicts against labels.
func accuracyOf(t *testing.T, m Monitor, ds *dataset.Dataset) float64 {
	t.Helper()
	v, err := m.Classify(ds.Samples)
	if err != nil {
		t.Fatalf("%s Classify: %v", m.Name(), err)
	}
	correct := 0
	for i, s := range ds.Samples {
		pred := 0
		if v[i].Unsafe {
			pred = 1
		}
		if pred == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len())
}

func smallTrainCfg(arch Arch, semantic bool) TrainConfig {
	return TrainConfig{
		Arch:     arch,
		Semantic: semantic,
		Epochs:   25,
		Hidden1:  32,
		Hidden2:  16,
		Seed:     7,
	}
}

func TestRuleBasedMonitor(t *testing.T) {
	_, test := campaignSplits(t, dataset.Glucosym)
	rb := NewRuleBased(140)
	if rb.Name() != "rule_based" {
		t.Fatalf("name = %q", rb.Name())
	}
	acc := accuracyOf(t, rb, test)
	if acc < 0.5 {
		t.Fatalf("rule-based accuracy = %v, want ≥ 0.5", acc)
	}
	// Verdicts must be confident (binary rules).
	v, err := rb.Classify(test.Samples[:5])
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range v {
		if x.Confidence != 1 {
			t.Fatalf("rule-based confidence = %v", x.Confidence)
		}
	}
}

func TestRuleBasedFlagsKnownUnsafeContext(t *testing.T) {
	rb := NewRuleBased(140)
	samples := []dataset.Sample{
		{BG: 200, DeltaBG: 2, DeltaIOB: -0.01, Action: controller.ActionDecrease}, // rule 1
		{BG: 120, DeltaBG: 0.1, DeltaIOB: 0, Action: controller.ActionKeep},       // safe
	}
	v, err := rb.Classify(samples)
	if err != nil {
		t.Fatal(err)
	}
	if !v[0].Unsafe || v[1].Unsafe {
		t.Fatalf("verdicts = %+v", v)
	}
}

func TestTrainMLPMonitor(t *testing.T) {
	train, test := campaignSplits(t, dataset.Glucosym)
	m, err := Train(train, smallTrainCfg(ArchMLP, false))
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if m.Name() != "mlp" {
		t.Fatalf("name = %q", m.Name())
	}
	acc := accuracyOf(t, m, test)
	if acc < 0.75 {
		t.Fatalf("MLP test accuracy = %v, want ≥ 0.75", acc)
	}
}

func TestTrainMLPCustomMonitor(t *testing.T) {
	train, test := campaignSplits(t, dataset.Glucosym)
	m, err := Train(train, smallTrainCfg(ArchMLP, true))
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if m.Name() != "mlp_custom" || !m.custom {
		t.Fatalf("name = %q custom = %v", m.Name(), m.custom)
	}
	acc := accuracyOf(t, m, test)
	if acc < 0.7 {
		t.Fatalf("MLP-Custom test accuracy = %v, want ≥ 0.7", acc)
	}
}

func TestTrainLSTMMonitor(t *testing.T) {
	train, test := campaignSplits(t, dataset.T1DS)
	m, err := Train(train, smallTrainCfg(ArchLSTM, false))
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if m.Name() != "lstm" || m.Arch() != ArchLSTM {
		t.Fatalf("name = %q", m.Name())
	}
	acc := accuracyOf(t, m, test)
	if acc < 0.7 {
		t.Fatalf("LSTM test accuracy = %v, want ≥ 0.7", acc)
	}
}

func TestTrainValidation(t *testing.T) {
	train, _ := campaignSplits(t, dataset.Glucosym)
	if _, err := Train(train, TrainConfig{Arch: Arch(9)}); err == nil {
		t.Fatal("want error for unknown arch")
	}
	empty := &dataset.Dataset{}
	if _, err := Train(empty, TrainConfig{Arch: ArchMLP}); err == nil {
		t.Fatal("want error for empty training set")
	}
	// Dataset without normalizers (not produced by Split) must be rejected.
	noNorm := *train
	noNorm.MLPNorm = nil
	if _, err := Train(&noNorm, TrainConfig{Arch: ArchMLP}); err == nil {
		t.Fatal("want error for missing normalizers")
	}
}

func TestTrainingDeterminism(t *testing.T) {
	train, test := campaignSplits(t, dataset.Glucosym)
	cfg := smallTrainCfg(ArchMLP, false)
	a, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	va, err := a.Classify(test.Samples)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := b.Classify(test.Samples)
	if err != nil {
		t.Fatal(err)
	}
	for i := range va {
		if va[i] != vb[i] {
			t.Fatalf("verdict %d differs between identically-seeded trainings", i)
		}
	}
}

func TestClassifyMatrixMatchesClassify(t *testing.T) {
	train, test := campaignSplits(t, dataset.Glucosym)
	m, err := Train(train, smallTrainCfg(ArchMLP, false))
	if err != nil {
		t.Fatal(err)
	}
	sub := test.Samples[:20]
	v1, err := m.Classify(sub)
	if err != nil {
		t.Fatal(err)
	}
	x, err := m.InputMatrix(sub)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := m.ClassifyMatrix(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("verdict %d differs between paths", i)
		}
	}
}

func TestInputMatrixWidthValidation(t *testing.T) {
	train, _ := campaignSplits(t, dataset.Glucosym)
	m, err := Train(train, smallTrainCfg(ArchMLP, false))
	if err != nil {
		t.Fatal(err)
	}
	bad := []dataset.Sample{{MLP: []float64{1, 2}}}
	if _, err := m.InputMatrix(bad); err == nil {
		t.Fatal("want error for wrong feature width")
	}
}

func TestMonitorSaveHeader(t *testing.T) {
	train, _ := campaignSplits(t, dataset.Glucosym)
	m, err := Train(train, smallTrainCfg(ArchMLP, true))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var want artifact.Buf // mlp, window 6, 6 seq features, semantic
	want.I64(int(ArchMLP))
	want.I64(6)
	want.I64(6)
	want.Byte(1)
	if secs := sectionsOf(t, buf.Bytes()); !bytes.Equal(secs[0], want.B) {
		t.Fatalf("meta section = %x, want %x", secs[0], want.B)
	}
}

func TestArchString(t *testing.T) {
	if ArchMLP.String() != "mlp" || ArchLSTM.String() != "lstm" {
		t.Fatal("arch strings")
	}
	if !strings.Contains(Arch(5).String(), "5") {
		t.Fatal("unknown arch string")
	}
}

// The semantic loss should pull ML predictions toward rule verdicts,
// increasing prediction/rule agreement vs the baseline (the transparency
// property §IV-C claims).
func TestCustomMonitorAgreesWithRulesMore(t *testing.T) {
	train, test := campaignSplits(t, dataset.Glucosym)
	base, err := Train(train, smallTrainCfg(ArchMLP, false))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallTrainCfg(ArchMLP, true)
	cfg.SemanticWeight = 2
	custom, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	agreement := func(m Monitor) float64 {
		v, err := m.Classify(test.Samples)
		if err != nil {
			t.Fatal(err)
		}
		agree := 0
		for i, s := range test.Samples {
			pred := 0.0
			if v[i].Unsafe {
				pred = 1
			}
			if pred == s.Knowledge {
				agree++
			}
		}
		return float64(agree) / float64(test.Len())
	}
	if ab, ac := agreement(base), agreement(custom); ac+0.02 < ab {
		t.Fatalf("custom monitor agrees with rules less than baseline: %v vs %v", ac, ab)
	}
}

func TestMonitorSaveLoadRoundTrip(t *testing.T) {
	train, test := campaignSplits(t, dataset.Glucosym)
	for _, arch := range []Arch{ArchMLP, ArchLSTM} {
		orig, err := Train(train, smallTrainCfg(arch, true))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := orig.Save(&buf); err != nil {
			t.Fatalf("Save: %v", err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		if loaded.Name() != orig.Name() {
			t.Fatalf("name %q != %q", loaded.Name(), orig.Name())
		}
		sub := test.Samples[:30]
		vo, err := orig.Classify(sub)
		if err != nil {
			t.Fatal(err)
		}
		vl, err := loaded.Classify(sub)
		if err != nil {
			t.Fatal(err)
		}
		for i := range vo {
			if vo[i] != vl[i] {
				t.Fatalf("%s verdict %d differs after round trip", orig.Name(), i)
			}
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("")); err == nil {
		t.Fatal("want error for empty input")
	}
	if _, err := Load(bytes.NewBufferString("warp 1 2 false\n{}\n{}\n")); err == nil {
		t.Fatal("want error for unknown architecture")
	}
	if _, err := Load(bytes.NewBufferString("not a header at all\n")); err == nil {
		t.Fatal("want error for malformed header")
	}
}

// savedMonitors returns the Save bytes of a 1-epoch MLP monitor and a
// 1-epoch LSTM monitor.
func savedMonitors(tb testing.TB) map[Arch][]byte {
	tb.Helper()
	train, _ := campaignSplits(tb, dataset.Glucosym)
	out := make(map[Arch][]byte)
	for _, arch := range []Arch{ArchMLP, ArchLSTM} {
		m, err := Train(train, TrainConfig{Arch: arch, Epochs: 1, Hidden1: 4, Hidden2: 3, Seed: 7})
		if err != nil {
			tb.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			tb.Fatal(err)
		}
		out[arch] = buf.Bytes()
	}
	return out
}

// sectionsOf returns the four section payloads of a saved monitor.
func sectionsOf(tb testing.TB, saved []byte) [][]byte {
	tb.Helper()
	secs, err := artifact.ReadSections(saved, monitorMagic, FormatVersion, 4)
	if err != nil {
		tb.Fatal(err)
	}
	return secs
}

// monitorFile seals four section payloads into a monitor file.
func monitorFile(secs ...[]byte) []byte {
	var b bytes.Buffer
	_ = artifact.WriteSections(&b, monitorMagic, FormatVersion, secs...)
	return b.Bytes()
}

// withSection returns saved with section i's payload replaced, resealed.
func withSection(tb testing.TB, saved []byte, i int, payload []byte) []byte {
	secs := sectionsOf(tb, saved)
	secs[i] = payload
	return monitorFile(secs...)
}

// TestLoadRejectsMismatchedNormalizer pins that Load checks the normalizer
// against the model's input width: an entry whose normalizer is empty used
// to load and then panic in the first InputMatrix call.
func TestLoadRejectsMismatchedNormalizer(t *testing.T) {
	for arch, saved := range savedMonitors(t) {
		m, err := Load(bytes.NewReader(saved))
		if err != nil {
			t.Fatalf("%v: valid entry: %v", arch, err)
		}
		n := m.Model().InputSize()
		zeros := make([]float64, n)
		for name, norm := range map[string]*dataset.Normalizer{
			"absent":           nil,
			"empty":            {},
			"one std too many": {Mean: zeros, Std: make([]float64, n+1)},
			"no std":           {Mean: zeros},
		} {
			if _, err := Load(bytes.NewReader(withSection(t, saved, 3, dataset.EncodeNormalizer(norm)))); err == nil {
				t.Errorf("%v: normalizer %s loaded for %d inputs", arch, name, n)
			}
		}
	}
}

// reseal returns a copy of data whose section checksums (CRC-32C) match
// their payloads, so fuzzed bytes reach Load's parsing past the CRC check.
// The container header is 16 bytes and each section header 24.
func reseal(data []byte) []byte {
	b := bytes.Clone(data)
	crc := crc32.MakeTable(crc32.Castagnoli)
	for off := 16; off+24 <= len(b); {
		start := off + 24
		size := binary.LittleEndian.Uint64(b[off+8:])
		if size > uint64(len(b)-start) {
			break
		}
		end := start + int(size)
		binary.LittleEndian.PutUint64(b[off+16:], uint64(crc32.Checksum(b[start:end], crc)))
		off = end + (8-int(size)%8)%8
	}
	return b
}

// FuzzLoad treats a monitor entry as hostile bytes, as given and resealed:
// Load may reject it, but a monitor it returns must classify one row of its
// input width, at both precisions, without a panic. Seeds: a saved MLP and
// LSTM, a truncated section, a checksum mismatch, a 2^32-wide dense layer
// (which must be rejected before anything is allocated), and a params
// section one value short of its layers.
func FuzzLoad(f *testing.F) {
	saved := savedMonitors(f)
	mlp := saved[ArchMLP]
	f.Add(mlp)
	f.Add(saved[ArchLSTM])
	f.Add(mlp[:len(mlp)-12])
	crcBad := bytes.Clone(mlp)
	crcBad[len(crcBad)-9] ^= 1
	f.Add(crcBad)
	var wide artifact.Buf // 6 inputs into a 2^32-wide dense layer
	wide.I64(6)
	wide.Str("cross_entropy")
	wide.F64(0)
	wide.I64(0)
	wide.I64(1)
	wide.I64(1) // dense
	wide.I64(6)
	wide.I64(1 << 32)
	f.Add(withSection(f, mlp, 1, wide.B))
	params := sectionsOf(f, mlp)[2]
	f.Add(withSection(f, mlp, 2, params[:len(params)-8]))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, b := range [][]byte{data, reseal(data)} {
			checkLoaded(t, b)
		}
	})
}

// checkLoaded loads data and, when Load accepts it, checks the monitor
// classifies a row of its input width at both precisions.
func checkLoaded(t *testing.T, data []byte) {
	m, err := Load(bytes.NewReader(data))
	if err != nil {
		return
	}
	row := make([]float64, m.Model().InputSize())
	for j := range row {
		row[j] = float64(j%5) - 2
	}
	if _, err := m.Classify([]dataset.Sample{{MLP: row, Seq: row}}); err != nil {
		t.Fatalf("loaded monitor cannot classify a %d-wide row: %v", len(row), err)
	}
	x, err := m.InputMatrix([]dataset.Sample{{MLP: row, Seq: row}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ClassifyInto(F32, x, make([]int, 1), make([]float64, 1)); err != nil {
		t.Fatalf("loaded monitor cannot classify a %d-wide row at f32: %v", len(row), err)
	}
}

// TestSaveLoadBitExact pins the monitor file as a lossless codec for every
// arch and loss: save, load and save again gives the same bytes, and every
// weight and normalizer statistic keeps its bits, signed zeros, subnormals
// and NaN payloads included.
func TestSaveLoadBitExact(t *testing.T) {
	train, _ := campaignSplits(t, dataset.Glucosym)
	special := []float64{math.Copysign(0, -1), 5e-324, -2.5e-310, math.Float64frombits(0x7ff8_0000_dead_beef)}
	for _, arch := range []Arch{ArchMLP, ArchLSTM} {
		for _, semantic := range []bool{false, true} {
			m, err := Train(train, TrainConfig{Arch: arch, Semantic: semantic, Epochs: 1, Hidden1: 4, Hidden2: 3, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range m.Model().Params() {
				copy(p.W.Data(), special)
			}
			m.norm = &dataset.Normalizer{
				Mean: append(append([]float64(nil), special...), m.norm.Mean[len(special):]...),
				Std:  append(append([]float64(nil), special...), m.norm.Std[len(special):]...),
			}
			var first, second bytes.Buffer
			if err := m.Save(&first); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(bytes.NewReader(first.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if err := loaded.Save(&second); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("%s: save→load→save changed the bytes", m.Name())
			}
			if loaded.Name() != m.Name() || loaded.window != m.window || loaded.seqFeats != m.seqFeats {
				t.Fatalf("%s: meta restored as %s window %d seqFeats %d", m.Name(), loaded.Name(), loaded.window, loaded.seqFeats)
			}
			want := [][]float64{m.norm.Mean, m.norm.Std}
			got := [][]float64{loaded.norm.Mean, loaded.norm.Std}
			for i, p := range m.Model().Params() {
				want = append(want, p.W.Data())
				got = append(got, loaded.Model().Params()[i].W.Data())
			}
			for i := range want {
				for k, v := range want[i] {
					if math.Float64bits(got[i][k]) != math.Float64bits(v) {
						t.Fatalf("%s: column %d value %d: bits %#x, want %#x", m.Name(), i, k, math.Float64bits(got[i][k]), math.Float64bits(v))
					}
				}
			}
		}
	}
}

func TestAdversarialTrainingImprovesRobustness(t *testing.T) {
	train, test := campaignSplits(t, dataset.Glucosym)
	base, err := Train(train, smallTrainCfg(ArchMLP, false))
	if err != nil {
		t.Fatal(err)
	}
	advCfg := smallTrainCfg(ArchMLP, false)
	advCfg.AdversarialEps = 0.1
	hardened, err := Train(train, advCfg)
	if err != nil {
		t.Fatal(err)
	}
	// Compare the fraction of predictions flipped by FGSM at ε=0.1.
	flipRate := func(m *MLMonitor) float64 {
		x, err := m.InputMatrix(test.Samples)
		if err != nil {
			t.Fatal(err)
		}
		orig, err := m.PredictClasses(x)
		if err != nil {
			t.Fatal(err)
		}
		grad, err := m.Model().InputGradient(x, test.Labels(), nil)
		if err != nil {
			t.Fatal(err)
		}
		adv := x.Clone()
		for i := 0; i < adv.Rows(); i++ {
			row, grow := adv.Row(i), grad.Row(i)
			for j := range row {
				if grow[j] > 0 {
					row[j] += 0.1
				} else if grow[j] < 0 {
					row[j] -= 0.1
				}
			}
		}
		pert, err := m.PredictClasses(adv)
		if err != nil {
			t.Fatal(err)
		}
		flips := 0
		for i := range orig {
			if orig[i] != pert[i] {
				flips++
			}
		}
		return float64(flips) / float64(len(orig))
	}
	if br, hr := flipRate(base), flipRate(hardened); hr > br {
		t.Fatalf("adversarial training did not reduce flip rate: base %v hardened %v", br, hr)
	}
}
