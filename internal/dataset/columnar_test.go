package dataset

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"repro/internal/artifact"
	"repro/internal/mmapio"
)

// Byte equality in this file compares renderings, not structs: DeepEqual
// can't see past the unexported mmap backing field. The codec round-trip
// tests compare JSON (jsonBytes), a reference independent of the columnar
// codec; the store tests compare columnar bytes (shard_test.go's colBytes),
// the format `apsim -out` writes.

// jsonBytes renders a dataset as JSON.
func jsonBytes(t *testing.T, ds *Dataset) []byte {
	t.Helper()
	b, err := json.Marshal(ds)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// benchCampaignConfig is the bench-preset campaign shape the repo's
// BenchmarkCampaignLoad measures — the round-trip tests pin byte equality
// on the same dataset the perf gate loads.
func benchCampaignConfig() CampaignConfig {
	return CampaignConfig{
		Simulator:          Glucosym,
		Profiles:           8,
		EpisodesPerProfile: 4,
		Steps:              200,
		Seed:               11,
	}
}

func TestColumnarRoundTripMatchesJSON(t *testing.T) {
	ds, err := Generate(benchCampaignConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	train, _, err := ds.Split(0.8)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	// train carries fitted normalizers; ds has none — together they cover
	// both presence flags.
	for name, d := range map[string]*Dataset{"raw": ds, "train-split": train} {
		var col bytes.Buffer
		if err := d.EncodeColumnar(&col); err != nil {
			t.Fatalf("%s: EncodeColumnar: %v", name, err)
		}
		back, err := DecodeColumnar(bytes.NewReader(col.Bytes()))
		if err != nil {
			t.Fatalf("%s: DecodeColumnar: %v", name, err)
		}
		if got, want := jsonBytes(t, back), jsonBytes(t, d); !bytes.Equal(got, want) {
			t.Fatalf("%s: decoded dataset renders different JSON (%d vs %d bytes)", name, len(got), len(want))
		}
		// Re-encoding the decoded dataset must reproduce the blob — the
		// property warm-run byte-identical output rests on.
		if got := colBytes(t, back); !bytes.Equal(got, col.Bytes()) {
			t.Fatalf("%s: re-encoded bytes differ from the original blob", name)
		}
	}
}

func TestColumnarEncodeIndependentOfWorkers(t *testing.T) {
	encode := func(workers int) []byte {
		cfg := benchCampaignConfig()
		cfg.Profiles, cfg.Steps = 4, 100
		cfg.Workers = workers
		ds, err := Generate(cfg)
		if err != nil {
			t.Fatalf("Generate(workers=%d): %v", workers, err)
		}
		var buf bytes.Buffer
		if err := ds.EncodeColumnar(&buf); err != nil {
			t.Fatalf("EncodeColumnar(workers=%d): %v", workers, err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(encode(1), encode(8)) {
		t.Fatal("columnar bytes differ between -parallel 1 and 8")
	}
}

func TestColumnarEmptyDatasetRoundTrip(t *testing.T) {
	// A shard whose range holds no episodes persists a legitimate empty
	// dataset; nil-vs-empty distinctions must survive the round trip so the
	// decoded dataset is indistinguishable from the original.
	for name, d := range map[string]*Dataset{
		"zero": {Simulator: "glucosym", Window: 6, Horizon: 5, BGTarget: 100},
		"empty-nonnil": {
			Simulator: "glucosym", Window: 6, Horizon: 5, BGTarget: 100,
			Samples: []Sample{}, EpisodeIndex: [][2]int{},
			Scenarios: []string{}, Faults: []string{},
		},
	} {
		var buf bytes.Buffer
		if err := d.EncodeColumnar(&buf); err != nil {
			t.Fatalf("%s: EncodeColumnar: %v", name, err)
		}
		back, err := DecodeColumnarBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: DecodeColumnarBytes: %v", name, err)
		}
		if got, want := jsonBytes(t, back), jsonBytes(t, d); !bytes.Equal(got, want) {
			t.Fatalf("%s: round trip changed the JSON rendering:\n got %s\nwant %s", name, got, want)
		}
		if got := colBytes(t, back); !bytes.Equal(got, buf.Bytes()) {
			t.Fatalf("%s: round trip changed the columnar bytes", name)
		}
	}
}

// cachedOnDisk populates key in a fresh disk store (cold miss) and returns
// the store with the small campaign the entry holds.
func cachedOnDisk(t *testing.T) (*artifact.Disk, artifact.Key, *Dataset) {
	t.Helper()
	store, err := artifact.NewDisk(t.TempDir())
	if err != nil {
		t.Fatalf("NewDisk: %v", err)
	}
	cfg := CampaignConfig{Simulator: Glucosym, Profiles: 2, EpisodesPerProfile: 2, Steps: 80, Seed: 3}
	ds, hit, err := CachedColumnar(store, cfg.ArtifactKey(),
		func() (*Dataset, error) { return Generate(cfg) }, true)
	if err != nil || hit {
		t.Fatalf("cold CachedColumnar: hit=%v err=%v", hit, err)
	}
	return store, cfg.ArtifactKey(), ds
}

// rawEntryPath locates the single raw .bin entry the store persisted.
func rawEntryPath(t *testing.T, store *artifact.Disk, key artifact.Key) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(store.Root(), key.Kind, "v*", "*.bin"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("raw entries = %v (err %v), want exactly one", matches, err)
	}
	return matches[0]
}

func TestCachedColumnarWarmLoadIsMappedAndByteIdentical(t *testing.T) {
	store, key, cold := cachedOnDisk(t)
	want := colBytes(t, cold)

	warm, hit, err := CachedColumnar(store, key,
		func() (*Dataset, error) { t.Fatal("warm run generated"); return nil, nil }, true)
	if err != nil || !hit {
		t.Fatalf("warm CachedColumnar: hit=%v err=%v", hit, err)
	}
	if mmapio.Supported() && !warm.Mapped() {
		t.Fatal("warm load did not mmap on a supported platform")
	}
	if got := colBytes(t, warm); !bytes.Equal(got, want) {
		t.Fatal("mmap-loaded dataset encodes differently from the generated one")
	}

	// The -no-mmap escape hatch must load the same bytes by copying.
	mmapio.SetDisabled(true)
	defer mmapio.SetDisabled(false)
	copied, hit, err := CachedColumnar(store, key,
		func() (*Dataset, error) { t.Fatal("warm run generated"); return nil, nil }, true)
	if err != nil || !hit {
		t.Fatalf("no-mmap CachedColumnar: hit=%v err=%v", hit, err)
	}
	if copied.Mapped() {
		t.Fatal("dataset reports Mapped with mmap disabled")
	}
	if got := colBytes(t, copied); !bytes.Equal(got, want) {
		t.Fatal("copy-loaded dataset encodes differently from the generated one")
	}
}

func TestCachedColumnarSplitAndFilterOnMappedViews(t *testing.T) {
	store, key, _ := cachedOnDisk(t)
	warm, _, err := CachedColumnar(store, key,
		func() (*Dataset, error) { t.Fatal("warm run generated"); return nil, nil }, true)
	if err != nil {
		t.Fatalf("warm CachedColumnar: %v", err)
	}
	train, test, err := warm.Split(0.75)
	if err != nil {
		t.Fatalf("Split on mapped dataset: %v", err)
	}
	if train.MLPNorm == nil || train.SeqNorm == nil {
		t.Fatal("Split did not fit normalizers on mapped dataset")
	}
	if train.Len() == 0 || test.Len() == 0 {
		t.Fatalf("degenerate split: train=%d test=%d", train.Len(), test.Len())
	}
	kept := warm.Filter(func(ep int) bool { return ep%2 == 0 })
	if kept.Len() == 0 || kept.Len() >= warm.Len() {
		t.Fatalf("Filter on mapped dataset kept %d of %d samples", kept.Len(), warm.Len())
	}
}

func TestCachedColumnarCorruptEntriesRegenerate(t *testing.T) {
	corruptions := map[string]func(t *testing.T, path string){
		"truncated-section": func(t *testing.T, path string) {
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, info.Size()/2); err != nil {
				t.Fatal(err)
			}
		},
		"checksum-mismatch": func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)/2] ^= 0xff
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"stale-blob-version": func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Blob version field sits 8 bytes into the columnar header,
			// which starts after the store's 64-byte raw-entry header.
			b[64+8] = FormatVersion - 1
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			store, key, cold := cachedOnDisk(t)
			want := colBytes(t, cold)
			corrupt(t, rawEntryPath(t, store, key))

			generated := 0
			ds, hit, err := CachedColumnar(store, key, func() (*Dataset, error) {
				generated++
				return Generate(CampaignConfig{Simulator: Glucosym, Profiles: 2, EpisodesPerProfile: 2, Steps: 80, Seed: 3})
			}, true)
			if err != nil {
				t.Fatalf("CachedColumnar after corruption: %v", err)
			}
			if hit || generated != 1 {
				t.Fatalf("corrupt entry served as a hit (hit=%v generated=%d)", hit, generated)
			}
			if got := colBytes(t, ds); !bytes.Equal(got, want) {
				t.Fatal("regenerated dataset differs from the original")
			}
			// The discard-and-repersist leaves a healthy entry behind.
			warm, hit, err := CachedColumnar(store, key,
				func() (*Dataset, error) { t.Fatal("regenerated twice"); return nil, nil }, true)
			if err != nil || !hit {
				t.Fatalf("rerun after regeneration: hit=%v err=%v", hit, err)
			}
			if got := colBytes(t, warm); !bytes.Equal(got, want) {
				t.Fatal("re-persisted entry differs from the original")
			}
		})
	}
}

func TestCachedColumnarRejectsEmptyWhenSamplesRequired(t *testing.T) {
	store, err := artifact.NewDisk(t.TempDir())
	if err != nil {
		t.Fatalf("NewDisk: %v", err)
	}
	key := artifact.Key{Kind: "campaign", Version: FormatVersion, Fingerprint: 42}
	empty := &Dataset{Simulator: "glucosym", Window: 6, Horizon: 5, BGTarget: 100}
	if _, _, err := CachedColumnar(store, key,
		func() (*Dataset, error) { return empty, nil }, false); err != nil {
		t.Fatalf("persist empty: %v", err)
	}
	generated := 0
	ds, hit, err := CachedColumnar(store, key, func() (*Dataset, error) {
		generated++
		return Generate(CampaignConfig{Simulator: Glucosym, Profiles: 1, EpisodesPerProfile: 1, Steps: 80, Seed: 3})
	}, true)
	if err != nil {
		t.Fatalf("CachedColumnar: %v", err)
	}
	if hit || generated != 1 || ds.Len() == 0 {
		t.Fatalf("cached empty campaign accepted (hit=%v generated=%d len=%d)", hit, generated, ds.Len())
	}
}

func TestCachedColumnarViewOutlivesRemovedEntry(t *testing.T) {
	// A mapped view pins its pages, not the file's name: unlinking the
	// entry (a discard) or pruning its whole version directory must leave
	// a live dataset readable and unchanged.
	for name, remove := range map[string]func(t *testing.T, store *artifact.Disk, key artifact.Key){
		"unlink": func(t *testing.T, store *artifact.Disk, key artifact.Key) {
			if err := os.Remove(store.Path(key)); err != nil {
				t.Fatal(err)
			}
		},
		"prune": func(t *testing.T, store *artifact.Disk, key artifact.Key) {
			if _, n, err := store.Prune(key.Kind, key.Version+1); err != nil || n != 1 {
				t.Fatalf("Prune removed %d entries (err %v), want the one campaign", n, err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			store, key, cold := cachedOnDisk(t)
			want := colBytes(t, cold)
			warm, hit, err := CachedColumnar(store, key,
				func() (*Dataset, error) { t.Fatal("warm run generated"); return nil, nil }, true)
			if err != nil || !hit {
				t.Fatalf("warm CachedColumnar: hit=%v err=%v", hit, err)
			}
			remove(t, store, key)
			if _, err := os.Stat(store.Path(key)); !os.IsNotExist(err) {
				t.Fatalf("entry still present after removal (stat err %v)", err)
			}
			if got := colBytes(t, warm); !bytes.Equal(got, want) {
				t.Fatal("view changed after its entry was removed")
			}
		})
	}
}

// viewWithin reports whether v, when it starts inside data, also ends
// inside it. A view that starts elsewhere is a decoded copy.
func viewWithin(data []byte, v []float64) bool {
	if len(v) == 0 || len(data) == 0 {
		return true
	}
	base := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
	start := uintptr(unsafe.Pointer(unsafe.SliceData(v)))
	if start < base || start >= base+uintptr(len(data)) {
		return true
	}
	return start+8*uintptr(len(v)) <= base+uintptr(len(data))
}

// reseal returns a copy of blob whose section checksums (CRC-32C) match
// their payloads, so fuzzed bytes reach the decoder's parsing past the CRC
// check. The container header is 16 bytes and each section header 24.
func reseal(blob []byte) []byte {
	b := append([]byte(nil), blob...)
	crc := crc32.MakeTable(crc32.Castagnoli)
	off := 16
	for off+24 <= len(b) {
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

// FuzzDecodeColumnarBytes feeds arbitrary blobs to the decoder, as given
// and resealed. It must never panic; a blob it accepts must yield uniform
// feature widths, views that stay inside the blob, episode ranges inside
// the samples, and a dataset whose encoding round-trips. The seed corpus
// under testdata/fuzz holds the encodings of a small campaign, its
// normalized training split, and the two empty datasets of
// TestColumnarEmptyDatasetRoundTrip.
func FuzzDecodeColumnarBytes(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, blob := range [][]byte{data, reseal(data)} {
			checkDecoded(t, blob)
		}
	})
}

// checkDecoded decodes blob and, when the decoder accepts it, checks the
// invariants FuzzDecodeColumnarBytes promises.
func checkDecoded(t *testing.T, blob []byte) {
	d, err := DecodeColumnarBytes(blob)
	if err != nil {
		return
	}
	var views [][]float64
	for i := range d.Samples {
		s := &d.Samples[i]
		if len(s.MLP) != len(d.Samples[0].MLP) || len(s.Seq) != len(d.Samples[0].Seq) {
			t.Fatalf("sample %d has widths %d/%d, sample 0 has %d/%d",
				i, len(s.MLP), len(s.Seq), len(d.Samples[0].MLP), len(d.Samples[0].Seq))
		}
		views = append(views, s.MLP, s.Seq)
	}
	for _, nz := range []*Normalizer{d.MLPNorm, d.SeqNorm} {
		if nz != nil {
			views = append(views, nz.Mean, nz.Std)
		}
	}
	for i, v := range views {
		if !viewWithin(blob, v) {
			t.Fatalf("view %d of %d values runs past the %d-byte blob", i, len(v), len(blob))
		}
	}
	for i, r := range d.EpisodeIndex {
		if r[0] < 0 || r[0] > r[1] || r[1] > len(d.Samples) {
			t.Fatalf("episode %d range %v outside %d samples", i, r, len(d.Samples))
		}
	}
	enc := colBytes(t, d)
	back, err := DecodeColumnarBytes(enc)
	if err != nil {
		t.Fatalf("re-encoded blob does not decode: %v", err)
	}
	if !bytes.Equal(colBytes(t, back), enc) {
		t.Fatal("re-encoded blob does not round-trip")
	}
}

func TestCampaignArtifactKeyPinned(t *testing.T) {
	// Pins the v4 cache address of a fixed config: an accidental change to
	// the fingerprint recipe or format version would silently orphan every
	// fleet cache, so it must show up here as a hard diff.
	key := benchCampaignConfig().ArtifactKey()
	if key.Kind != "campaign" || key.Version != 4 {
		t.Fatalf("key = %+v, want kind campaign version 4", key)
	}
	const want = uint64(0x8da161b3053702d2)
	if key.Fingerprint != want {
		t.Fatalf("fingerprint = %#x, want %#x", key.Fingerprint, want)
	}
}
