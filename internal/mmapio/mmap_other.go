//go:build !linux

package mmapio

import (
	"fmt"
	"os"
)

// mmapSupported gates Open's borrowing path at build time: without a
// ported mapFile, Open always takes the copying fallback.
const mmapSupported = false

// fileID is unused without mapping: Open never reaches the intern table.
type fileID struct{}

func identify(os.FileInfo) fileID { return fileID{} }

func mapFile(_ *os.File, _ int) ([]byte, error) {
	return nil, fmt.Errorf("mmapio: mapping unsupported on this platform")
}
