//go:build linux

package mmapio

import (
	"os"
	"syscall"
)

// mmapSupported gates Open's borrowing path at build time.
const mmapSupported = true

// fileID is a file's identity on disk. A replacement by rename changes it.
// A rewrite in place at the same size keeps it, and the mapping, which
// shares the page cache and is never written, then reads the new bytes.
type fileID struct {
	dev, ino uint64
	size     int64
}

// identify returns st's identity.
func identify(st os.FileInfo) fileID {
	id := fileID{size: st.Size()}
	if sys, ok := st.Sys().(*syscall.Stat_t); ok {
		id.dev, id.ino = uint64(sys.Dev), sys.Ino
	}
	return id
}

// mapFile maps size bytes of f read-only and private. The mapping is
// page-aligned, so byte offsets within the file translate directly to
// pointer alignment of the returned slice.
func mapFile(f *os.File, size int) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_PRIVATE)
}
