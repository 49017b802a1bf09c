package monitor

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sweep"
)

func trainedBytes(t *testing.T, train *dataset.Dataset, cfg TrainConfig) []byte {
	t.Helper()
	m, err := Train(train, cfg)
	if err != nil {
		t.Fatalf("Train(workers=%d): %v", cfg.Workers, err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

// TestTrainParallelDeterminism pins the PR's headline contract end to end:
// the same TrainConfig must yield byte-identical serialized monitors at
// Workers=1 (serial blocks) and Workers=N (block-parallel
// forward/backward). The budget is raised
// explicitly so the fan-out really happens even on small CI machines.
func TestTrainParallelDeterminism(t *testing.T) {
	sweep.SetBudget(8)
	defer sweep.SetBudget(0)

	cases := []struct {
		name string
		sim  dataset.Simulator
		cfg  TrainConfig
	}{
		{"mlp", dataset.Glucosym, TrainConfig{
			Arch: ArchMLP, Epochs: 3, Hidden1: 32, Hidden2: 16, Seed: 7,
		}},
		{"mlp_custom_advtrain", dataset.Glucosym, TrainConfig{
			Arch: ArchMLP, Semantic: true, AdversarialEps: 0.05,
			Epochs: 2, Hidden1: 32, Hidden2: 16, Seed: 7,
		}},
		{"lstm", dataset.T1DS, TrainConfig{
			Arch: ArchLSTM, Epochs: 2, Hidden1: 16, Hidden2: 8, Seed: 7,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			train, _ := campaignSplits(t, tc.sim)
			serial := tc.cfg
			serial.Workers = 1
			ref := trainedBytes(t, train, serial)
			for _, workers := range []int{4, 8} {
				par := tc.cfg
				par.Workers = workers
				if got := trainedBytes(t, train, par); !bytes.Equal(ref, got) {
					t.Fatalf("trained monitor bytes differ between Workers=1 and Workers=%d", workers)
				}
			}
		})
	}
}

// TestTrainConfigFingerprintIgnoresWorkers: Workers cannot change trained
// weights, so it must not invalidate cached monitors.
func TestTrainConfigFingerprintIgnoresWorkers(t *testing.T) {
	a := TrainConfig{Arch: ArchMLP, Epochs: 3, Seed: 7}
	b := a
	b.Workers = 8
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("Workers changed the training fingerprint")
	}
}
