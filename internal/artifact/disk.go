package artifact

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// headerMagic starts every on-disk artifact; the header repeats the key so
// a file that was copied, renamed, or produced by an incompatible build is
// detected as stale and recomputed.
const headerMagic = "apsrepro-artifact"

// headerSize is the fixed byte length of an entry's NUL-padded header, so
// the payload always starts at offset 64: a multiple of 8, and aligned
// relative to a mapping of the whole file.
const headerSize = 64

// Disk is the file-backed Store. Entries live under
// root/<kind>/v<version>/<fingerprint>.bin, each prefixed with the 64-byte
// header naming its key. Writes go through a temp file in the destination
// directory followed by an atomic rename, so concurrent processes (and the
// parallel sweep cells of one process) never observe a partial artifact.
type Disk struct {
	root string
	// Logf, when set, receives one line per cache event (hit, store,
	// discard). CLIs point it at the standard stderr logger so warm runs
	// are observable without touching stdout.
	Logf func(format string, args ...any)
}

// NewDisk opens (creating if needed) a disk store rooted at dir.
func NewDisk(dir string) (*Disk, error) {
	if dir == "" {
		return nil, fmt.Errorf("artifact: empty cache root")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: create cache root: %w", err)
	}
	return &Disk{root: dir}, nil
}

// Root returns the store's root directory.
func (d *Disk) Root() string { return d.root }

func (d *Disk) logf(format string, args ...any) {
	if d.Logf != nil {
		d.Logf(format, args...)
	}
}

// Path returns where the entry for k is (or would be) published.
func (d *Disk) Path(k Key) string {
	return filepath.Join(d.root, k.Kind, fmt.Sprintf("v%d", k.Version), fmt.Sprintf("%016x.bin", k.Fingerprint))
}

// headerBlock renders the fixed-size entry header for key, or nil when the
// rendered key cannot fit (a kind name would have to be ~25 bytes long;
// such an entry is simply not cacheable).
func headerBlock(k Key) []byte {
	line := fmt.Sprintf("%s-raw %s\n", headerMagic, k)
	if len(line) > headerSize {
		return nil
	}
	b := make([]byte, headerSize)
	copy(b, line)
	return b
}

// GetOrCreateFile implements Store.
func (d *Disk) GetOrCreateFile(key Key, load func(path string, payloadOff int64) error, create func() error, encode func(io.Writer) error) (bool, error) {
	path := d.Path(key)
	hit, readErr := d.tryLoad(key, path, load)
	if hit {
		return true, nil
	}
	if err := create(); err != nil {
		d.logFailure(readErr, nil)
		return false, err
	}
	d.logFailure(readErr, d.persist(key, path, encode))
	return false, nil
}

// logFailure logs an entry's failed read and failed write as one line, so
// a root that can do neither (a regular file where the directory should
// be) logs each entry once, with the read's cause first.
func (d *Disk) logFailure(readErr, writeErr error) {
	switch {
	case readErr != nil && writeErr != nil:
		d.logf("artifact cache: %v; %v", readErr, writeErr)
	case readErr != nil:
		d.logf("artifact cache: %v", readErr)
	case writeErr != nil:
		d.logf("artifact cache: %v", writeErr)
	}
}

// GetOrCreate is GetOrCreateFile with a stream decoder (see ReaderLoad),
// kept for callers outside this module.
func (d *Disk) GetOrCreate(key Key, decode func(io.Reader) error, create func() error, encode func(io.Writer) error) (bool, error) {
	return d.GetOrCreateFile(key, ReaderLoad(decode), create, encode)
}

// tryLoad validates an entry's header and hands the file to load; any
// failure discards the entry and reports a miss. An absent entry is a
// silent miss; any other open failure (permissions, I/O, a file squatting
// where a directory should be) is still a miss — the cache never fails the
// run — but is returned for the caller to log, so a broken cache is
// observable instead of silently recomputing forever.
func (d *Disk) tryLoad(key Key, path string, load func(path string, payloadOff int64) error) (bool, error) {
	want := headerBlock(key)
	if want == nil {
		return false, nil
	}
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return false, nil
		}
		return false, fmt.Errorf("cannot open %s (%s): %v", key, path, err)
	}
	var hdr [headerSize]byte
	_, err = io.ReadFull(f, hdr[:])
	f.Close()
	if err != nil {
		d.discard(key, path, fmt.Errorf("truncated header"))
		return false, nil
	}
	if !bytes.Equal(hdr[:], want) {
		d.discard(key, path, fmt.Errorf("stale header %q", strings.TrimRight(string(hdr[:]), "\x00")))
		return false, nil
	}
	if err := load(path, headerSize); err != nil {
		d.discard(key, path, err)
		return false, nil
	}
	d.logf("artifact cache hit: %s (%s)", key, path)
	return true, nil
}

// discard removes a corrupt or stale entry so the next run recreates it.
func (d *Disk) discard(key Key, path string, cause error) {
	d.logf("artifact cache: discarding %s: %v", key, cause)
	os.Remove(path)
}

// persist writes the entry atomically and logs the store. A failure is
// returned for the caller to log and is otherwise swallowed: the caller
// already holds the freshly created product, and a read-only or full cache
// must never fail the run.
func (d *Disk) persist(key Key, path string, encode func(io.Writer) error) error {
	hdr := headerBlock(key)
	if hdr == nil {
		return fmt.Errorf("key %s too long for an entry header; not cached", key)
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("cannot create %s: %v", dir, err)
	}
	tmp, err := os.CreateTemp(dir, stagingPrefix+"*")
	if err != nil {
		return fmt.Errorf("cannot stage %s: %v", key, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	bw := bufio.NewWriter(tmp)
	_, err = bw.Write(hdr)
	if err == nil {
		err = encode(bw)
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return fmt.Errorf("cannot persist %s: %v", key, err)
	}
	d.logf("artifact cache store: %s (%s)", key, path)
	return nil
}

// versionDirRe matches the per-version subdirectories Prune may remove.
var versionDirRe = regexp.MustCompile(`^v\d+$`)

// stagingPrefix names persist's temp files. One whose writer was killed
// between the write and the rename stays behind until Prune reclaims it.
const stagingPrefix = ".tmp-"

// legacySuffix names the entries of the retired text-header container.
// No build reads them any more, whatever their format version.
const legacySuffix = ".art"

// Prune reclaims the dead bytes of kind: every entry stored under a format
// version other than keepVersion (format-version bumps orphan old entries
// forever — their keys become unreachable, never overwritten), and, inside
// the keepVersion directory, legacy .art entries and staging files left by
// killed writers. A staging file still being written is reclaimed too; its
// writer's rename then fails, which only costs that writer its cache store.
// Returns the bytes reclaimed and files removed; an absent kind directory
// prunes nothing.
func (d *Disk) Prune(kind string, keepVersion int) (reclaimed int64, entries int, err error) {
	kindDir := filepath.Join(d.root, kind)
	ents, err := os.ReadDir(kindDir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, 0, nil
		}
		return 0, 0, fmt.Errorf("artifact: prune %s: %w", kind, err)
	}
	keep := fmt.Sprintf("v%d", keepVersion)
	for _, e := range ents {
		if !e.IsDir() || !versionDirRe.MatchString(e.Name()) {
			continue
		}
		dir := filepath.Join(kindDir, e.Name())
		if e.Name() == keep {
			b, n, err := pruneOrphans(dir)
			reclaimed += b
			entries += n
			if err != nil {
				return reclaimed, entries, fmt.Errorf("artifact: prune %s: %w", kind, err)
			}
			continue
		}
		walkErr := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
			if err != nil {
				return err
			}
			if !info.IsDir() {
				reclaimed += info.Size()
				entries++
			}
			return nil
		})
		if walkErr != nil {
			return reclaimed, entries, fmt.Errorf("artifact: prune %s: %w", kind, walkErr)
		}
		if err := os.RemoveAll(dir); err != nil {
			return reclaimed, entries, fmt.Errorf("artifact: prune %s: %w", kind, err)
		}
		d.logf("artifact cache: pruned %s/%s (stale format version, kept %s)", kind, e.Name(), keep)
	}
	if entries > 0 {
		d.logf("artifact cache: pruned %d stale %s entries, %d bytes reclaimed", entries, kind, reclaimed)
	}
	return reclaimed, entries, nil
}

// pruneOrphans removes the legacy entries and staging files in one
// version directory. A file that vanishes first (a writer's rename or a
// concurrent prune) is skipped, not counted.
func pruneOrphans(dir string) (reclaimed int64, removed int, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !(strings.HasPrefix(name, stagingPrefix) || strings.HasSuffix(name, legacySuffix)) {
			continue
		}
		info, err := e.Info()
		if err == nil {
			err = os.Remove(filepath.Join(dir, name))
		}
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return reclaimed, removed, err
		}
		reclaimed += info.Size()
		removed++
	}
	return reclaimed, removed, nil
}
