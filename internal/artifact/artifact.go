// Package artifact is a content-addressed store for the expensive products
// of an experiment run: generated campaigns, trained monitors, evaluation
// reports, and STL summaries. Every artifact is identified by a Key — its
// kind, the format version of the code that produced it, and a fingerprint
// of the canonicalized producing configuration — so a warm run with an
// identical configuration loads the cached bytes instead of recomputing,
// and any change to the config, the encoding, or the producing code's
// declared version makes the old entry unreachable (a miss, never an error).
//
// Every entry has one container: a file root/<kind>/v<version>/<fp>.bin
// whose first 64 bytes are a NUL-padded header naming the key, followed by
// the payload. The payload therefore starts at an 8-aligned offset, so a
// binary decoder can mmap the file and reinterpret aligned structures in
// place. Store has one protocol, GetOrCreateFile, which hands the decoder
// the entry's path and payload offset; ReaderLoad adapts decoders that
// read a stream. Payloads that hold features or weights (campaigns,
// monitors, substitutes) are section containers (WriteSections,
// ReadSections): CRC-checked, 8-byte-aligned binary sections.
//
// Stores are written to be safe under concurrency: the disk implementation
// publishes entries with an atomic temp-file + rename, so parallel sweep
// cells and concurrent processes never observe a partially written
// artifact. Corrupt or stale entries (bad header, failed decode) are
// discarded and recomputed rather than surfaced as errors — the cache is an
// optimization, never a source of truth.
package artifact

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"os"
)

// Key identifies one cacheable artifact.
type Key struct {
	// Kind names the artifact family, e.g. "campaign" or "monitor".
	Kind string
	// Version is the producing code's format version; bumping it orphans
	// every previously cached entry of this kind.
	Version int
	// Fingerprint is a stable hash of the canonicalized producing config.
	Fingerprint uint64
}

// String renders the key as it appears in cache paths and log lines.
func (k Key) String() string {
	return fmt.Sprintf("%s-v%d-%016x", k.Kind, k.Version, k.Fingerprint)
}

// Fingerprint hashes the canonical rendering of parts with FNV-1a. Parts
// are formatted with %v and joined by a unit separator, so distinct
// configurations produce distinct canonical strings (fields must be
// emitted in a fixed order by the caller).
func Fingerprint(parts ...any) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		fmt.Fprintf(h, "%v\x1f", p)
	}
	return h.Sum64()
}

// Store is the artifact cache lookup. GetOrCreateFile first tries to load
// the entry under key by handing load the published entry's path and the
// offset where its payload starts; on any miss (absent, stale, or corrupt)
// it calls create to produce the artifact in memory, then encode to
// persist it for the next run. Binary decoders mmap the entry and borrow
// its pages; stream decoders go through ReaderLoad.
//
// Errors from create always propagate — they mean the product itself could
// not be built. Errors from load or from persisting never do: the entry is
// discarded (or simply not written) and the caller proceeds with the
// freshly created product.
type Store interface {
	GetOrCreateFile(key Key, load func(path string, payloadOff int64) error, create func() error, encode func(io.Writer) error) (hit bool, err error)
}

// FileStore is the former name of Store, kept for callers outside this
// module.
type FileStore = Store

// ReaderLoad adapts a stream decoder to the load callback of
// GetOrCreateFile: it opens the entry, seeks to the payload, and hands
// decode a buffered reader over the payload bytes.
func ReaderLoad(decode func(io.Reader) error) func(path string, payloadOff int64) error {
	return func(path string, payloadOff int64) error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if _, err := f.Seek(payloadOff, io.SeekStart); err != nil {
			return err
		}
		return decode(bufio.NewReader(f))
	}
}

// Disabled is the no-op Store: every lookup misses and nothing persists.
// It is the default for tests and for runs with -no-cache.
type Disabled struct{}

// GetOrCreateFile implements Store by always invoking create.
func (Disabled) GetOrCreateFile(_ Key, _ func(string, int64) error, create func() error, _ func(io.Writer) error) (bool, error) {
	return false, create()
}
