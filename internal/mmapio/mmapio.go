// Package mmapio provides read-only memory-mapped file access with a safe
// copying fallback, plus the byte↔float64 reinterpretation the columnar
// campaign decoder builds its zero-copy views on.
//
// A Region is the unit of borrowing: Open maps a whole file PROT_READ on
// platforms with mmap support (one build-tagged file per platform) and
// falls back to reading the file into memory elsewhere, or everywhere when
// the -no-mmap escape hatch (SetDisabled) is armed. Mapped regions are
// deliberately never unmapped: views handed out over a region (dataset
// feature columns, normalizer statistics) outlive any single call frame —
// they are copied into subsets, threaded through evaluation fan-outs, and
// cached in long-lived assets — so the mapping stays valid for the process
// lifetime. The pages are file-backed and clean, so the OS reclaims them
// under memory pressure and faults them back in on the next read; leaking
// the virtual range is the price of never dangling.
//
// Because regions live forever, Open interns them: every Open of one file
// returns the same Region, so a process that loads one artifact many times
// holds one mapping of it, not one per load. The intern table is keyed by
// path and file identity (device, inode, size). The artifact store
// publishes by rename, so a regenerated entry is a new inode and maps anew,
// and since a mapping keeps its inode allocated, an inode number cannot be
// reused under a live key. The copying fallback is not interned.
//
// Everything returned from this package is read-only by contract: the
// kernel maps the pages without PROT_WRITE, so a write through a borrowed
// view is a segfault, not a corruption. The repo-wide viewsafe lint
// analyzer enforces the contract on the dataset columns that borrow from
// mapped regions.
package mmapio

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Region is one read-only byte range: a borrowed mmap of a file, or a
// private in-memory copy when mapping is unsupported or disabled.
type Region struct {
	data   []byte
	mapped bool
}

// Data returns the region's bytes. Callers must treat them as read-only:
// mapped regions lack PROT_WRITE and fault on store.
func (r *Region) Data() []byte { return r.data }

// Mapped reports whether the bytes are borrowed from the page cache
// (true) or privately copied (false).
func (r *Region) Mapped() bool { return r.mapped }

// regionKey identifies one mapped file: its path and its identity on disk.
type regionKey struct {
	path string
	id   fileID
}

var (
	internMu sync.Mutex
	interned = map[regionKey]*Region{}
	mappings atomic.Int64
)

// Mappings returns how many files this process has mapped so far. A
// repeated Open of an unchanged file reuses its Region and does not count.
//
//apslint:allow reach test seam: the experiments tests pin that repeated Builds map each campaign once through it
func Mappings() int64 { return mappings.Load() }

// disabled is the process-wide -no-mmap switch (1 = copy, never map).
var disabled atomic.Bool

// SetDisabled arms or clears the copying fallback for every subsequent
// Open. CLIs call it once at startup from the -no-mmap flag.
func SetDisabled(v bool) { disabled.Store(v) }

// Disabled reports whether mapping is currently disabled.
func Disabled() bool { return disabled.Load() }

// Supported reports whether this platform build carries a real mmap
// implementation (tests use it to decide whether a warm load must map).
//
//apslint:allow reach test seam: the columnar test and BenchmarkCampaignLoad skip their mapped-path check through it where mmap is unavailable
func Supported() bool { return mmapSupported }

// Open returns a read-only Region over the whole file at path: a borrowed
// mapping when the platform supports it and mapping is enabled, a private
// copy otherwise. A file already mapped, and unchanged since, returns its
// existing Region. Mapping failures (exotic filesystems, mount options)
// degrade to the copying path, never to an error the caller must branch
// on.
func Open(path string) (*Region, error) {
	if !mmapSupported || Disabled() {
		return readAll(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("mmapio: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("mmapio: %w", err)
	}
	size := st.Size()
	if size == 0 {
		return &Region{}, nil
	}
	if size != int64(int(size)) {
		return readAll(path) // larger than the address space can map
	}
	key := regionKey{path: path, id: identify(st)}
	internMu.Lock()
	defer internMu.Unlock()
	if r := interned[key]; r != nil {
		return r, nil
	}
	b, err := mapFile(f, int(size))
	if err != nil {
		return readAll(path)
	}
	r := &Region{data: b, mapped: true}
	interned[key] = r
	mappings.Add(1)
	return r, nil
}

// readAll is the copying fallback behind Open.
func readAll(path string) (*Region, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("mmapio: %w", err)
	}
	return &Region{data: b}, nil
}

// hostLittle reports whether the host stores multi-byte words
// little-endian — the precondition for reinterpreting the columnar
// format's little-endian blocks in place.
var hostLittle = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// aligned8 reports whether b's backing array starts on an 8-byte boundary.
func aligned8(b []byte) bool {
	return len(b) == 0 || uintptr(unsafe.Pointer(&b[0]))%8 == 0
}

// Float64s reinterprets b (a little-endian float64 block, len(b) must be a
// multiple of 8) as a []float64. When the host is little-endian and the
// block is 8-byte aligned the result is a zero-copy view sharing b's
// memory — read-only by the package contract; otherwise the values are
// decoded into a fresh slice. The boolean reports which path was taken.
func Float64s(b []byte) ([]float64, bool) {
	n := len(b) / 8
	if n == 0 {
		return nil, false
	}
	if hostLittle && aligned8(b) {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n), true
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, false
}
