package artifact

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// rawCodec builds the load/create/encode triple GetOrCreateFile takes,
// loading by reading the published file from the payload offset.
func rawCodec(create string) (got *string, load func(path string, off int64) error, cre func() error, enc func(w io.Writer) error) {
	v := new(string)
	return v,
		func(path string, off int64) error {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			if off < 0 || off > int64(len(b)) {
				return fmt.Errorf("offset %d outside %d-byte file", off, len(b))
			}
			payload := string(b[off:])
			if !strings.HasPrefix(payload, "payload:") {
				return fmt.Errorf("corrupt payload %q", payload)
			}
			*v = payload
			return nil
		},
		func() error {
			*v = create
			return nil
		},
		func(w io.Writer) error {
			_, err := io.WriteString(w, *v)
			return err
		}
}

func TestDiskRawFileMissCreatesAndPersists(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	got, load, cre, enc := rawCodec("payload:raw")
	hit, err := d.GetOrCreateFile(testKey(), load, cre, enc)
	if err != nil || hit {
		t.Fatalf("first GetOrCreateFile: hit=%v err=%v, want miss", hit, err)
	}
	if *got != "payload:raw" {
		t.Fatalf("product = %q", *got)
	}

	// The persisted entry carries the fixed 64-byte header then the payload.
	raw, err := os.ReadFile(d.Path(testKey()))
	if err != nil {
		t.Fatalf("published entry unreadable: %v", err)
	}
	if len(raw) != headerSize+len("payload:raw") {
		t.Fatalf("entry is %d bytes, want %d", len(raw), headerSize+len("payload:raw"))
	}
	if !strings.HasPrefix(string(raw), "apsrepro-artifact-raw "+testKey().String()+"\n") {
		t.Fatalf("entry header = %q", raw[:headerSize])
	}
	if string(raw[headerSize:]) != "payload:raw" {
		t.Fatalf("entry payload = %q", raw[headerSize:])
	}

	got2, load2, _, enc2 := rawCodec("payload:SHOULD-NOT-RUN")
	hit, err = d.GetOrCreateFile(testKey(), load2, func() error { t.Fatal("create ran on a warm entry"); return nil }, enc2)
	if err != nil || !hit {
		t.Fatalf("second GetOrCreateFile: hit=%v err=%v, want hit", hit, err)
	}
	if *got2 != "payload:raw" {
		t.Fatalf("warm load = %q", *got2)
	}
}

func TestDiskRawFileCorruptAndStaleEntriesFallBackToCreate(t *testing.T) {
	cases := map[string]func(t *testing.T, d *Disk){
		"truncated-header": func(t *testing.T, d *Disk) {
			writeRaw(t, d, testKey(), []byte("apsrepro")) // shorter than the 64-byte block
		},
		"stale-header": func(t *testing.T, d *Disk) {
			other := Key{Kind: "campaign", Version: 9, Fingerprint: testKey().Fingerprint}
			blk := headerBlock(other)
			writeRaw(t, d, testKey(), append(blk, "payload:stale"...))
		},
		"load-rejects-payload": func(t *testing.T, d *Disk) {
			blk := headerBlock(testKey())
			writeRaw(t, d, testKey(), append(blk, "garbage"...))
		},
	}
	for name, plant := range cases {
		t.Run(name, func(t *testing.T) {
			d, err := NewDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			plant(t, d)
			got, load, cre, enc := rawCodec("payload:fresh")
			hit, err := d.GetOrCreateFile(testKey(), load, cre, enc)
			if err != nil || hit {
				t.Fatalf("GetOrCreateFile over bad entry: hit=%v err=%v, want miss", hit, err)
			}
			if *got != "payload:fresh" {
				t.Fatalf("product = %q", *got)
			}
			// The bad entry was discarded and replaced; a rerun hits.
			got2, load2, _, enc2 := rawCodec("")
			hit, err = d.GetOrCreateFile(testKey(), load2, func() error { t.Fatal("create ran after repersist"); return nil }, enc2)
			if err != nil || !hit {
				t.Fatalf("rerun: hit=%v err=%v, want hit", hit, err)
			}
			if *got2 != "payload:fresh" {
				t.Fatalf("rerun load = %q", *got2)
			}
		})
	}
}

// writeRaw plants raw bytes at the key's .bin path.
func writeRaw(t *testing.T, d *Disk, key Key, b []byte) {
	t.Helper()
	path := d.Path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestDiskOpenErrorIsLoggedNotFatal(t *testing.T) {
	// An unreadable entry must stay a cache miss (the run proceeds) but the
	// open failure must be logged — a silently broken cache recomputes
	// forever. Permission bits don't fail under root, so the unreadable
	// entry here is an ENOTDIR: a regular file squatting where the version
	// directory should be.
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var logs []string
	d.Logf = func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) }
	if err := os.MkdirAll(filepath.Join(d.Root(), "campaign"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(d.Root(), "campaign", "v1"), []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, dec, cre, enc := payloadCodec("payload:recomputed")
	hit, err := d.GetOrCreateFile(testKey(), dec, cre, enc)
	if err != nil || hit {
		t.Fatalf("GetOrCreateFile: hit=%v err=%v, want miss", hit, err)
	}
	if *got != "payload:recomputed" {
		t.Fatalf("product = %q", *got)
	}
	found := false
	for _, l := range logs {
		if strings.Contains(l, "cannot open") && strings.Contains(l, testKey().String()) {
			found = true
		}
	}
	if !found {
		t.Fatalf("open failure not logged; log lines: %q", logs)
	}
}

func TestDiskPruneRemovesStaleVersionsOnly(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var logs []string
	d.Logf = func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) }

	// Two stale entries under v1, one live under v2, and an unrelated kind
	// that must survive untouched. The live v2 directory also holds a
	// legacy .art entry and a staging file a killed writer left behind;
	// both are dead bytes.
	stale1 := Key{Kind: "campaign", Version: 1, Fingerprint: 1}
	stale2 := Key{Kind: "campaign", Version: 1, Fingerprint: 2}
	live := Key{Kind: "campaign", Version: 2, Fingerprint: 3}
	other := Key{Kind: "monitor", Version: 1, Fingerprint: 4}
	for _, k := range []Key{stale1, stale2, live, other} {
		_, load, cre, enc := rawCodec("payload:" + k.String())
		if _, err := d.GetOrCreateFile(k, load, cre, enc); err != nil {
			t.Fatal(err)
		}
	}
	liveDir := filepath.Dir(d.Path(live))
	legacy := filepath.Join(liveDir, "0000000000000003.art")
	staging := filepath.Join(liveDir, stagingPrefix+"123456")
	for _, p := range []string{legacy, staging} {
		if err := os.WriteFile(p, []byte("dead bytes"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var staleBytes int64
	for _, p := range []string{d.Path(stale1), d.Path(stale2), legacy, staging} {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		staleBytes += info.Size()
	}

	reclaimed, entries, err := d.Prune("campaign", 2)
	if err != nil {
		t.Fatalf("Prune: %v", err)
	}
	if entries != 4 || reclaimed != staleBytes {
		t.Fatalf("Prune reclaimed %d bytes / %d entries, want %d / 4", reclaimed, entries, staleBytes)
	}
	for _, p := range []string{filepath.Join(d.Root(), "campaign", "v1"), legacy, staging} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("%s survived prune (stat err %v)", p, err)
		}
	}
	for _, p := range []string{d.Path(live), d.Path(other)} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("prune removed a live entry: %v", err)
		}
	}
	found := false
	for _, l := range logs {
		if strings.Contains(l, "bytes reclaimed") {
			found = true
		}
	}
	if !found {
		t.Fatalf("prune did not log reclaimed bytes; log lines: %q", logs)
	}

	// Pruning again (or an absent kind) is a quiet no-op.
	if reclaimed, entries, err := d.Prune("campaign", 2); err != nil || reclaimed != 0 || entries != 0 {
		t.Fatalf("second Prune = %d/%d/%v, want zeros", reclaimed, entries, err)
	}
	if _, _, err := d.Prune("nope", 1); err != nil {
		t.Fatalf("Prune of absent kind: %v", err)
	}
}

func TestDiskPersistSurvivesUnlinkedStagingFile(t *testing.T) {
	// A prune that runs while a writer is between its temp write and its
	// rename reclaims the in-flight staging file. The writer must still
	// hand back its product; it only loses the cache store.
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var logs []string
	d.Logf = func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) }
	got, load, cre, _ := rawCodec("payload:unlinked")
	pruned := 0
	enc := func(w io.Writer) error {
		_, n, err := d.Prune(testKey().Kind, testKey().Version)
		pruned = n
		if err != nil {
			return err
		}
		_, err = io.WriteString(w, *got)
		return err
	}
	hit, err := d.GetOrCreateFile(testKey(), load, cre, enc)
	if err != nil || hit || *got != "payload:unlinked" {
		t.Fatalf("GetOrCreateFile = hit %v, err %v, product %q; want a miss with the created product", hit, err, *got)
	}
	if pruned != 1 {
		t.Fatalf("mid-write prune removed %d files, want the one staging file", pruned)
	}
	if _, err := os.Stat(d.Path(testKey())); !os.IsNotExist(err) {
		t.Fatalf("an entry was published from an unlinked staging file (stat err %v)", err)
	}
	if joined := strings.Join(logs, "\n"); !strings.Contains(joined, "cannot persist") {
		t.Fatalf("failed persist not logged; log lines:\n%s", joined)
	}
}

// FuzzRawEntry writes arbitrary bytes as the published entry of a key and
// looks the key up. The lookup must never panic or fail: it either hits
// with a payload the loader accepted, or discards the entry and creates —
// after which the entry is healthy and the next lookup hits. The seed
// corpus under testdata/fuzz holds a valid entry, a garbage payload, a
// stale and a truncated header, and an empty file.
func FuzzRawEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, entry []byte) {
		d, err := NewDisk(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		writeRaw(t, d, testKey(), entry)
		got, load, cre, enc := rawCodec("payload:fresh")
		hit, err := d.GetOrCreateFile(testKey(), load, cre, enc)
		if err != nil {
			t.Fatalf("lookup over a fuzzed entry failed: %v", err)
		}
		if hit {
			if len(entry) < headerSize || !bytes.Equal(entry[:headerSize], headerBlock(testKey())) ||
				*got != string(entry[headerSize:]) {
				t.Fatalf("hit on an entry the header check must reject: %q", entry)
			}
			return
		}
		if *got != "payload:fresh" {
			t.Fatalf("miss returned %q, want the created product", *got)
		}
		got2, load2, _, enc2 := rawCodec("")
		hit, err = d.GetOrCreateFile(testKey(), load2, func() error { t.Fatal("create ran after repersist"); return nil }, enc2)
		if err != nil || !hit || *got2 != "payload:fresh" {
			t.Fatalf("after repersist: hit=%v err=%v payload=%q", hit, err, *got2)
		}
	})
}
