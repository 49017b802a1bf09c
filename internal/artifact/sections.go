package artifact

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Section container: the one binary layout every stored artifact that
// holds floats uses (campaign blobs, trained monitors, substitutes).
//
// Layout (all integers little-endian):
//
//	header:       8-byte magic, uint32 format version, uint32 section count
//	per section:  uint64 section id (1, 2, … in file order),
//	              uint64 payload length,
//	              uint64 checksum (CRC-32C of the payload, zero-extended),
//	              payload, zero padding to the next 8-byte boundary
//
// Because the header is 16 bytes, every section header is 24, and every
// payload is padded to a multiple of 8, each payload starts 8-byte aligned
// relative to the container — and a store entry places the container at
// payload offset 64, so mmap-ed float columns are pointer-aligned for
// in-place reinterpretation.
const (
	containerHeaderSize = 16
	sectionHeaderSize   = 24
)

// sectionCRC is the per-section checksum polynomial: CRC-32C has hardware
// support on amd64/arm64, so verifying a whole campaign costs a fraction
// of the decode it protects.
var sectionCRC = crc32.MakeTable(crc32.Castagnoli)

// Buf builds one section payload.
type Buf struct{ B []byte }

// U64 appends v.
func (c *Buf) U64(v uint64) { c.B = binary.LittleEndian.AppendUint64(c.B, v) }

// I64 appends v as a two's-complement int64.
func (c *Buf) I64(v int) { c.U64(uint64(int64(v))) }

// F64 appends the IEEE-754 bits of v.
func (c *Buf) F64(v float64) { c.U64(math.Float64bits(v)) }

// Byte appends v.
func (c *Buf) Byte(v byte) { c.B = append(c.B, v) }

// Str appends a uint32 length and the bytes of s.
func (c *Buf) Str(s string) {
	c.B = append(binary.LittleEndian.AppendUint32(c.B, uint32(len(s))), s...)
}

// Floats appends the IEEE-754 bits of every value of v.
func (c *Buf) Floats(v []float64) {
	for _, f := range v {
		c.F64(f)
	}
}

// WriteSections writes a container: the header naming magic (exactly 8
// bytes), version and the section count, then each section with ids 1, 2, …
// in argument order.
func WriteSections(w io.Writer, magic string, version uint32, sections ...[]byte) error {
	var err error
	write := func(b []byte) {
		if err == nil {
			_, err = w.Write(b)
		}
	}
	var hdr [containerHeaderSize]byte
	copy(hdr[:], magic)
	binary.LittleEndian.PutUint32(hdr[8:], version)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(sections)))
	write(hdr[:])
	var pad [8]byte
	for i, payload := range sections {
		var sh [sectionHeaderSize]byte
		binary.LittleEndian.PutUint64(sh[0:], uint64(i+1))
		binary.LittleEndian.PutUint64(sh[8:], uint64(len(payload)))
		binary.LittleEndian.PutUint64(sh[16:], uint64(crc32.Checksum(payload, sectionCRC)))
		write(sh[:])
		write(payload)
		write(pad[:(8-len(payload)%8)%8])
	}
	return err
}

// ReadSections checks a container's magic, version and section count, and
// returns its count section payloads in id order, each checksum-verified.
// Bytes after the last section are an error. The payloads are subslices
// of data (capacity-capped), so a decoder may reinterpret them in place.
func ReadSections(data []byte, magic string, version uint32, count int) ([][]byte, error) {
	c := NewReader(data)
	hdr := c.Take(containerHeaderSize)
	if c.err != nil {
		return nil, c.err
	}
	if string(hdr[:8]) != magic {
		return nil, fmt.Errorf("artifact: sections: bad magic %q, want %q", hdr[:8], magic)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != version {
		return nil, fmt.Errorf("artifact: sections: format version %d, want %d", v, version)
	}
	if n := binary.LittleEndian.Uint32(hdr[12:]); n != uint32(count) {
		return nil, fmt.Errorf("artifact: sections: %d sections, want %d", n, count)
	}
	out := make([][]byte, count)
	for i := range out {
		id, size, sum := c.U64(), c.U64(), c.U64()
		if c.err == nil && id != uint64(i+1) {
			return nil, fmt.Errorf("artifact: sections: section %d out of order (want %d)", id, i+1)
		}
		if c.err == nil && size > uint64(c.Remaining()) {
			return nil, fmt.Errorf("artifact: sections: section %d truncated (%d bytes declared, %d remain)", i+1, size, c.Remaining())
		}
		out[i] = c.Take(int(size))
		if got := uint64(crc32.Checksum(out[i], sectionCRC)); c.err == nil && got != sum {
			return nil, fmt.Errorf("artifact: sections: section %d checksum mismatch (%08x, want %08x)", i+1, got, sum)
		}
		c.Take((8 - int(size)%8) % 8)
		if c.err != nil {
			return nil, c.err
		}
	}
	if c.Remaining() != 0 {
		return nil, fmt.Errorf("artifact: sections: %d trailing bytes after final section", c.Remaining())
	}
	return out, nil
}

// Reader walks one section payload. Every read is bounds-checked: a read
// past the end returns zero values and records the first such error,
// which Err reports, so a decoder checks once after a run of reads.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader at the start of b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first read error, or nil.
func (c *Reader) Err() error { return c.err }

// Remaining returns the number of unread bytes.
func (c *Reader) Remaining() int { return len(c.b) - c.off }

// Take returns the next n bytes (capacity-capped), or nil once fewer than
// n remain or an earlier read failed.
func (c *Reader) Take(n int) []byte {
	if c.err == nil && (n < 0 || c.Remaining() < n) {
		c.err = fmt.Errorf("artifact: sections: truncated at offset %d (need %d of %d remaining bytes)",
			c.off, n, c.Remaining())
	}
	if c.err != nil {
		return nil
	}
	b := c.b[c.off : c.off+n : c.off+n]
	c.off += n
	return b
}

// U64 reads a uint64.
func (c *Reader) U64() uint64 {
	if b := c.Take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// I64 reads a two's-complement int64 as an int.
func (c *Reader) I64() int { return int(int64(c.U64())) }

// F64 reads the IEEE-754 bits of a float64.
func (c *Reader) F64() float64 { return math.Float64frombits(c.U64()) }

// Byte reads one byte.
func (c *Reader) Byte() byte {
	if b := c.Take(1); b != nil {
		return b[0]
	}
	return 0
}

// Str reads a string written by Buf.Str.
func (c *Reader) Str() string {
	b := c.Take(4)
	if b == nil {
		return ""
	}
	return string(c.Take(int(binary.LittleEndian.Uint32(b))))
}
