package mmapio

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func writeTemp(t *testing.T, b []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "blob")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenRoundTrips(t *testing.T) {
	payload := []byte("hello columnar world, padded to something non-trivial")
	path := writeTemp(t, payload)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Data(), payload) {
		t.Fatalf("Data() = %q, want %q", r.Data(), payload)
	}
}

func TestOpenEmptyFile(t *testing.T) {
	path := writeTemp(t, nil)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Data()) != 0 {
		t.Fatalf("empty file yielded %d bytes", len(r.Data()))
	}
	if r.Mapped() {
		t.Fatal("empty file must not claim a mapping")
	}
}

func TestOpenMissingFileErrors(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("Open on a missing file must error")
	}
}

func TestSetDisabledForcesCopy(t *testing.T) {
	payload := bytes.Repeat([]byte{0xab}, 4096)
	path := writeTemp(t, payload)
	SetDisabled(true)
	defer SetDisabled(false)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Mapped() {
		t.Fatal("disabled mmapio must copy, not map")
	}
	if !bytes.Equal(r.Data(), payload) {
		t.Fatal("copied bytes diverge from the file")
	}
}

func TestOpenMapsOnLinux(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	payload := bytes.Repeat([]byte{0x5c}, 8192)
	r, err := Open(writeTemp(t, payload))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Mapped() {
		t.Fatal("expected a borrowed mapping on a supported platform")
	}
	if !bytes.Equal(r.Data(), payload) {
		t.Fatal("mapped bytes diverge from the file")
	}
	if !aligned8(r.Data()) {
		t.Fatal("mapping is not page-aligned")
	}
}

func TestFloat64sViewAndValues(t *testing.T) {
	want := []float64{0, 1.5, -2.25, math.Pi, math.Inf(1), math.SmallestNonzeroFloat64}
	b := make([]byte, 8*len(want))
	for i, v := range want {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(v))
	}
	got, view := Float64s(b)
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("value %d = %v, want %v", i, got[i], want[i])
		}
	}
	if hostLittle && aligned8(b) {
		if !view {
			t.Fatal("aligned little-endian block must reinterpret in place")
		}
		// A view shares memory: mutating the source bytes shows through.
		binary.LittleEndian.PutUint64(b, math.Float64bits(42))
		if got[0] != 42 {
			t.Fatal("view does not share the source bytes")
		}
	}
}

func TestFloat64sMisalignedCopies(t *testing.T) {
	raw := make([]byte, 8*3+1)
	mis := raw[1:] // off the 8-byte grid by construction... usually
	if aligned8(mis) {
		mis = raw[:len(raw)-1] // raw itself was misaligned; use its head
	}
	for i := 0; i < 3; i++ {
		binary.LittleEndian.PutUint64(mis[i*8:], math.Float64bits(float64(i)+0.5))
	}
	got, view := Float64s(mis[:24])
	if view {
		t.Fatal("misaligned block must copy")
	}
	for i := 0; i < 3; i++ {
		if got[i] != float64(i)+0.5 {
			t.Fatalf("copied value %d = %v", i, got[i])
		}
	}
}

func TestFloat64sEmpty(t *testing.T) {
	if got, view := Float64s(nil); got != nil || view {
		t.Fatal("empty block must yield nil, no view")
	}
}

// TestOpenInternsByFileIdentity pins the intern table: a second Open of an
// unchanged file returns the same Region without a new mapping, and a file
// replaced by rename (a new inode, as the artifact store publishes) is
// mapped anew and serves its new bytes, even at the same size.
func TestOpenInternsByFileIdentity(t *testing.T) {
	if !Supported() {
		t.Skip("no mmap on this platform")
	}
	old := bytes.Repeat([]byte{0x11}, 4096)
	path := writeTemp(t, old)
	before := Mappings()
	r1, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 || !r1.Mapped() {
		t.Fatalf("reopening an unchanged file gave a new region (same: %v, mapped: %v)", r1 == r2, r1.Mapped())
	}
	if n := Mappings() - before; n != 1 {
		t.Fatalf("two Opens of one file made %d mappings, want 1", n)
	}

	fresh := bytes.Repeat([]byte{0x22}, len(old))
	tmp := path + ".new"
	if err := os.WriteFile(tmp, fresh, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
	r3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r1 || !bytes.Equal(r3.Data(), fresh) {
		t.Fatalf("replaced file served the old region (same: %v, first byte %#x)", r3 == r1, r3.Data()[0])
	}
	if !bytes.Equal(r1.Data(), old) {
		t.Fatal("the old region changed under its views")
	}
}
