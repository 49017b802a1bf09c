package artifact

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func testKey() Key { return Key{Kind: "campaign", Version: 1, Fingerprint: 0xabcdef} }

// payloadCodec builds the load/create/encode triple over a string payload,
// loading through ReaderLoad.
func payloadCodec(create string) (got *string, load func(string, int64) error, cre func() error, enc func(io.Writer) error) {
	v := new(string)
	return v,
		ReaderLoad(func(r io.Reader) error {
			b, err := io.ReadAll(r)
			if err != nil {
				return err
			}
			if !strings.HasPrefix(string(b), "payload:") {
				return fmt.Errorf("corrupt payload %q", b)
			}
			*v = string(b)
			return nil
		}),
		func() error {
			*v = create
			return nil
		},
		func(w io.Writer) error {
			_, err := io.WriteString(w, *v)
			return err
		}
}

func TestKeyString(t *testing.T) {
	k := Key{Kind: "monitor", Version: 3, Fingerprint: 0xff}
	if got, want := k.String(), "monitor-v3-00000000000000ff"; got != want {
		t.Fatalf("Key.String() = %q, want %q", got, want)
	}
}

func TestFingerprintStableAndDistinct(t *testing.T) {
	a := Fingerprint("campaign", 10, 4, 1.5)
	if b := Fingerprint("campaign", 10, 4, 1.5); a != b {
		t.Fatalf("same parts fingerprint differently: %x vs %x", a, b)
	}
	distinct := []uint64{
		Fingerprint("campaign", 10, 4, 1.6),
		Fingerprint("campaign", 10, 41.5), // field-boundary shift must not collide
		Fingerprint("monitor", 10, 4, 1.5),
	}
	for i, d := range distinct {
		if d == a {
			t.Fatalf("variant %d collides with base fingerprint %x", i, a)
		}
	}
}

func TestDiskMissCreatesAndPersists(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	got, dec, cre, enc := payloadCodec("payload:one")
	hit, err := d.GetOrCreateFile(testKey(), dec, cre, enc)
	if err != nil || hit {
		t.Fatalf("first GetOrCreateFile: hit=%v err=%v, want miss", hit, err)
	}
	if *got != "payload:one" {
		t.Fatalf("product = %q", *got)
	}
	// Second lookup must hit and decode the persisted bytes.
	got2, dec2, cre2, enc2 := payloadCodec("payload:SHOULD-NOT-RUN")
	hit, err = d.GetOrCreateFile(testKey(), dec2, cre2, enc2)
	if err != nil || !hit {
		t.Fatalf("second GetOrCreateFile: hit=%v err=%v, want hit", hit, err)
	}
	if *got2 != "payload:one" {
		t.Fatalf("warm product = %q, want the cached payload", *got2)
	}
}

func TestDiskCreateErrorPropagates(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	_, dec, _, enc := payloadCodec("")
	if _, err := d.GetOrCreateFile(testKey(), dec, func() error { return boom }, enc); !errors.Is(err, boom) {
		t.Fatalf("create error not propagated: %v", err)
	}
	if _, err := os.Stat(d.Path(testKey())); !os.IsNotExist(err) {
		t.Fatalf("failed create must not persist an entry: %v", err)
	}
}

// corruptEntry overwrites the stored file for key with raw bytes.
func corruptEntry(t *testing.T, d *Disk, key Key, raw string) {
	t.Helper()
	path := d.Path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestDiskCorruptAndStaleEntriesFallBackToCreate(t *testing.T) {
	cases := []struct {
		name string
		raw  string
	}{
		{"garbage payload", string(headerBlock(testKey())) + "not a payload"},
		{"truncated header", "apsrepro-art"},
		{"fingerprint mismatch", string(headerBlock(Key{Kind: "campaign", Version: 1, Fingerprint: 0x1})) + "payload:evil"},
		{"version mismatch", string(headerBlock(Key{Kind: "campaign", Version: 99, Fingerprint: 0xabcdef})) + "payload:old"},
		{"empty file", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := NewDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			var events []string
			d.Logf = func(format string, args ...any) { events = append(events, fmt.Sprintf(format, args...)) }
			corruptEntry(t, d, testKey(), tc.raw)
			got, dec, cre, enc := payloadCodec("payload:fresh")
			hit, err := d.GetOrCreateFile(testKey(), dec, cre, enc)
			if err != nil {
				t.Fatalf("corrupt entry must not error: %v", err)
			}
			if hit {
				t.Fatal("corrupt entry must miss")
			}
			if *got != "payload:fresh" {
				t.Fatalf("product = %q, want freshly created", *got)
			}
			// The recreated entry must be healthy again.
			got2, dec2, cre2, enc2 := payloadCodec("payload:SHOULD-NOT-RUN")
			if hit, err := d.GetOrCreateFile(testKey(), dec2, cre2, enc2); err != nil || !hit {
				t.Fatalf("after recreation: hit=%v err=%v", hit, err)
			}
			if *got2 != "payload:fresh" {
				t.Fatalf("recreated payload = %q", *got2)
			}
			joined := strings.Join(events, "\n")
			if !strings.Contains(joined, "discarding") {
				t.Fatalf("expected a discard log line, got:\n%s", joined)
			}
		})
	}
}

func TestDiskConcurrentGetOrCreateIsAtomic(t *testing.T) {
	dir := t.TempDir()
	const goroutines = 16
	var wg sync.WaitGroup
	results := make([]string, goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine opens its own store handle, as separate
			// processes would.
			d, err := NewDisk(dir)
			if err != nil {
				errs[g] = err
				return
			}
			got, dec, cre, enc := payloadCodec("payload:shared")
			if _, err := d.GetOrCreateFile(testKey(), dec, cre, enc); err != nil {
				errs[g] = err
				return
			}
			results[g] = *got
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if results[g] != "payload:shared" {
			t.Fatalf("goroutine %d observed %q — a partial or mixed artifact", g, results[g])
		}
	}
	// Exactly the one published entry remains; no stray temp files.
	d, _ := NewDisk(dir)
	leftover := 0
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			leftover++
			if strings.Contains(filepath.Base(path), ".tmp-") {
				t.Fatalf("stray temp file %s", path)
			}
		}
		return nil
	})
	if leftover != 1 {
		t.Fatalf("expected exactly 1 artifact file, found %d", leftover)
	}
	got, dec, cre, enc := payloadCodec("payload:SHOULD-NOT-RUN")
	if hit, err := d.GetOrCreateFile(testKey(), dec, cre, enc); err != nil || !hit || *got != "payload:shared" {
		t.Fatalf("final state: hit=%v err=%v payload=%q", hit, err, *got)
	}
}

func TestDisabledStoreAlwaysCreates(t *testing.T) {
	var s Store = Disabled{}
	for i := 0; i < 2; i++ {
		got, dec, cre, enc := payloadCodec("payload:fresh")
		hit, err := s.GetOrCreateFile(testKey(), dec, cre, enc)
		if err != nil || hit || *got != "payload:fresh" {
			t.Fatalf("round %d: hit=%v err=%v payload=%q", i, hit, err, *got)
		}
	}
}
