package dataset

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/artifact"
	"repro/internal/controller"
	"repro/internal/mmapio"
)

// Columnar campaign encoding (campaign FormatVersion 4).
//
// The columnar encoding stores a dataset as fixed-order little-endian
// column blocks, so a warm load reinterprets the float columns in place
// ([]float64 views over the raw bytes, borrowed straight from mmap-ed
// artifact pages) instead of parsing and allocating per sample. Encoded
// bytes are a pure function of the dataset — independent of worker count,
// host, and store — which is the campaign byte-determinism contract.
//
// Layout (all integers little-endian):
//
//	file header:  8-byte magic "APSCOLMN", uint32 FormatVersion,
//	              uint32 section count (always 10)
//	per section:  uint64 section id, uint64 payload length,
//	              uint64 checksum (CRC-32C of the payload, zero-extended),
//	              payload, zero padding to the next 8-byte boundary
//
// Sections appear in id order (meta, MLP floats, seq floats, scalar
// columns, int columns, episode index, scenarios, faults, MLP normalizer,
// seq normalizer); sections without content carry empty payloads, so the
// offset structure is identical for every dataset shape. Because the file
// header is 16 bytes, every section header is 24, and every payload is
// padded to a multiple of 8, each payload starts 8-byte aligned relative
// to the blob — and the artifact store's raw-file layout places the blob
// at an 8-aligned file offset, so mmap-ed float columns are pointer-aligned
// for in-place reinterpretation.
//
// Views returned by the decoder (Sample.MLP, Sample.Seq, normalizer
// statistics) are read-only by contract: mapped pages lack PROT_WRITE.
// The viewsafe lint analyzer enforces the contract on Sample's feature
// columns repo-wide.

const (
	colMagic        = "APSCOLMN"
	colSectionCount = 10
	colHeaderSize   = 16
	secHeaderSize   = 24
)

// Section ids, in file order.
const (
	secMeta = 1 + iota
	secMLP
	secSeq
	secScalars
	secInts
	secEpisodes
	secScenarios
	secFaults
	secMLPNorm
	secSeqNorm
)

// Meta flag bits: which optional parts are present (distinguishing nil
// from empty so a decoded dataset is indistinguishable from the original,
// down to its JSON rendering).
const (
	flagSamples = 1 << iota
	flagEpisodes
	flagScenarios
	flagFaults
	flagMLPNorm
	flagSeqNorm
)

// colCRC is the per-section checksum polynomial: CRC-32C has hardware
// support on amd64/arm64, so verifying a whole campaign costs a fraction
// of the decode it protects.
var colCRC = crc32.MakeTable(crc32.Castagnoli)

// colBuf builds one section payload.
type colBuf struct{ b []byte }

func (c *colBuf) u32(v uint32) {
	c.b = binary.LittleEndian.AppendUint32(c.b, v)
}
func (c *colBuf) u64(v uint64) {
	c.b = binary.LittleEndian.AppendUint64(c.b, v)
}
func (c *colBuf) i64(v int)     { c.u64(uint64(int64(v))) }
func (c *colBuf) f64(v float64) { c.u64(math.Float64bits(v)) }
func (c *colBuf) str(s string)  { c.u32(uint32(len(s))); c.b = append(c.b, s...) }
func (c *colBuf) byte(v byte)   { c.b = append(c.b, v) }
func (c *colBuf) floats(v []float64) {
	for _, f := range v {
		c.f64(f)
	}
}

// EncodeColumnar writes the dataset in the columnar binary format. The
// output is byte-identical for equal datasets regardless of how (or at
// what worker count) they were produced.
func (d *Dataset) EncodeColumnar(w io.Writer) error {
	n := len(d.Samples)
	mlpDim, seqWidth := 0, 0
	if n > 0 {
		mlpDim, seqWidth = len(d.Samples[0].MLP), len(d.Samples[0].Seq)
	}
	for i := range d.Samples {
		if len(d.Samples[i].MLP) != mlpDim || len(d.Samples[i].Seq) != seqWidth {
			return fmt.Errorf("dataset: encode columnar: sample %d has ragged feature widths (%d/%d, want %d/%d)",
				i, len(d.Samples[i].MLP), len(d.Samples[i].Seq), mlpDim, seqWidth)
		}
	}

	var meta colBuf
	meta.u64(uint64(n))
	meta.u64(uint64(mlpDim))
	meta.u64(uint64(seqWidth))
	meta.i64(d.Window)
	meta.i64(d.Horizon)
	meta.f64(d.BGTarget)
	var flags byte
	if d.Samples != nil {
		flags |= flagSamples
	}
	if d.EpisodeIndex != nil {
		flags |= flagEpisodes
	}
	if d.Scenarios != nil {
		flags |= flagScenarios
	}
	if d.Faults != nil {
		flags |= flagFaults
	}
	if d.MLPNorm != nil {
		flags |= flagMLPNorm
	}
	if d.SeqNorm != nil {
		flags |= flagSeqNorm
	}
	meta.byte(flags)
	meta.str(d.Simulator)

	var mlp, seq colBuf
	mlp.b = make([]byte, 0, 8*n*mlpDim)
	seq.b = make([]byte, 0, 8*n*seqWidth)
	for i := range d.Samples {
		mlp.floats(d.Samples[i].MLP)
		seq.floats(d.Samples[i].Seq)
	}

	var scalars colBuf
	scalars.b = make([]byte, 0, 4*8*n)
	for _, get := range []func(*Sample) float64{
		func(s *Sample) float64 { return s.Knowledge },
		func(s *Sample) float64 { return s.BG },
		func(s *Sample) float64 { return s.DeltaBG },
		func(s *Sample) float64 { return s.DeltaIOB },
	} {
		for i := range d.Samples {
			scalars.f64(get(&d.Samples[i]))
		}
	}

	var ints colBuf
	ints.b = make([]byte, 0, 4*8*n+n)
	for _, get := range []func(*Sample) int{
		func(s *Sample) int { return s.Label },
		func(s *Sample) int { return s.EpisodeID },
		func(s *Sample) int { return s.Step },
		func(s *Sample) int { return int(s.Action) },
	} {
		for i := range d.Samples {
			ints.i64(get(&d.Samples[i]))
		}
	}
	for i := range d.Samples {
		if d.Samples[i].HazardNow {
			ints.byte(1)
		} else {
			ints.byte(0)
		}
	}

	var episodes colBuf
	episodes.u64(uint64(len(d.EpisodeIndex)))
	for _, r := range d.EpisodeIndex {
		episodes.i64(r[0])
		episodes.i64(r[1])
	}

	strSection := func(ss []string) []byte {
		var c colBuf
		c.u64(uint64(len(ss)))
		for _, s := range ss {
			c.str(s)
		}
		return c.b
	}
	normSection := func(nz *Normalizer) []byte {
		if nz == nil {
			return nil
		}
		var c colBuf
		c.u64(uint64(len(nz.Mean)))
		c.floats(nz.Mean)
		c.u64(uint64(len(nz.Std)))
		c.floats(nz.Std)
		return c.b
	}

	sections := [colSectionCount][]byte{
		meta.b, mlp.b, seq.b, scalars.b, ints.b, episodes.b,
		strSection(d.Scenarios), strSection(d.Faults),
		normSection(d.MLPNorm), normSection(d.SeqNorm),
	}

	var hdr [colHeaderSize]byte
	copy(hdr[:], colMagic)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(FormatVersion))
	binary.LittleEndian.PutUint32(hdr[12:], colSectionCount)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("dataset: encode columnar: %w", err)
	}
	var pad [8]byte
	for i, payload := range sections {
		var sh [secHeaderSize]byte
		binary.LittleEndian.PutUint64(sh[0:], uint64(i+1))
		binary.LittleEndian.PutUint64(sh[8:], uint64(len(payload)))
		binary.LittleEndian.PutUint64(sh[16:], uint64(crc32.Checksum(payload, colCRC)))
		if _, err := w.Write(sh[:]); err != nil {
			return fmt.Errorf("dataset: encode columnar: %w", err)
		}
		if _, err := w.Write(payload); err != nil {
			return fmt.Errorf("dataset: encode columnar: %w", err)
		}
		if rem := len(payload) % 8; rem != 0 {
			if _, err := w.Write(pad[:8-rem]); err != nil {
				return fmt.Errorf("dataset: encode columnar: %w", err)
			}
		}
	}
	return nil
}

// colReader walks one decoded blob.
type colReader struct {
	b   []byte
	off int
}

func (c *colReader) remaining() int { return len(c.b) - c.off }

func (c *colReader) take(n int) ([]byte, error) {
	if n < 0 || c.remaining() < n {
		return nil, fmt.Errorf("dataset: columnar: truncated at offset %d (need %d of %d remaining bytes)",
			c.off, n, c.remaining())
	}
	b := c.b[c.off : c.off+n : c.off+n]
	c.off += n
	return b, nil
}

func (c *colReader) u32() (uint32, error) {
	b, err := c.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (c *colReader) u64() (uint64, error) {
	b, err := c.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (c *colReader) i64() (int, error) {
	v, err := c.u64()
	return int(int64(v)), err
}

func (c *colReader) f64() (float64, error) {
	v, err := c.u64()
	return math.Float64frombits(v), err
}

func (c *colReader) str() (string, error) {
	n, err := c.u32()
	if err != nil {
		return "", err
	}
	b, err := c.take(int(n))
	return string(b), err
}

// section validates and returns the payload of the expected next section.
func (c *colReader) section(wantID int) ([]byte, error) {
	id, err := c.u64()
	if err != nil {
		return nil, err
	}
	if id != uint64(wantID) {
		return nil, fmt.Errorf("dataset: columnar: section %d out of order (want %d)", id, wantID)
	}
	size, err := c.u64()
	if err != nil {
		return nil, err
	}
	sum, err := c.u64()
	if err != nil {
		return nil, err
	}
	if size > uint64(c.remaining()) {
		return nil, fmt.Errorf("dataset: columnar: section %d truncated (%d bytes declared, %d remain)", wantID, size, c.remaining())
	}
	payload, err := c.take(int(size))
	if err != nil {
		return nil, err
	}
	if got := uint64(crc32.Checksum(payload, colCRC)); got != sum {
		return nil, fmt.Errorf("dataset: columnar: section %d checksum mismatch (%08x, want %08x)", wantID, got, sum)
	}
	if rem := int(size) % 8; rem != 0 {
		if _, err := c.take(8 - rem); err != nil {
			return nil, err
		}
	}
	return payload, nil
}

// floatColumn reinterprets (or decodes) a float64 column of count values
// from the section payload starting at byte offset off.
func floatColumn(payload []byte, off, count int) ([]float64, error) {
	if count == 0 {
		return nil, nil
	}
	if off < 0 || off > len(payload) || count < 0 || count > (len(payload)-off)/8 {
		return nil, fmt.Errorf("dataset: columnar: float column of %d values at offset %d outside %d-byte section", count, off, len(payload))
	}
	end := off + 8*count
	v, _ := mmapio.Float64s(payload[off:end:end])
	return v, nil
}

// DecodeColumnarBytes decodes a columnar blob. Float columns are
// reinterpreted in place when alignment and host endianness allow, so the
// returned dataset's Sample.MLP/Sample.Seq slices (and normalizer
// statistics) may be views into data — read-only by contract. The caller
// must keep data reachable for the dataset's lifetime (slices returned by
// mmapio keep heap-backed blobs alive automatically; mapped regions are
// process-lifetime).
func DecodeColumnarBytes(data []byte) (*Dataset, error) {
	c := &colReader{b: data}
	hdr, err := c.take(colHeaderSize)
	if err != nil {
		return nil, err
	}
	if string(hdr[:8]) != colMagic {
		return nil, fmt.Errorf("dataset: columnar: bad magic %q", hdr[:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != FormatVersion {
		return nil, fmt.Errorf("dataset: columnar: format version %d, want %d", v, FormatVersion)
	}
	if ns := binary.LittleEndian.Uint32(hdr[12:]); ns != colSectionCount {
		return nil, fmt.Errorf("dataset: columnar: %d sections, want %d", ns, colSectionCount)
	}

	metaPayload, err := c.section(secMeta)
	if err != nil {
		return nil, err
	}
	m := &colReader{b: metaPayload}
	nU, err := m.u64()
	if err != nil {
		return nil, err
	}
	mlpDimU, err := m.u64()
	if err != nil {
		return nil, err
	}
	seqWidthU, err := m.u64()
	if err != nil {
		return nil, err
	}
	n, mlpDim, seqWidth := int(nU), int(mlpDimU), int(seqWidthU)
	window, err := m.i64()
	if err != nil {
		return nil, err
	}
	horizon, err := m.i64()
	if err != nil {
		return nil, err
	}
	bgTarget, err := m.f64()
	if err != nil {
		return nil, err
	}
	flagsB, err := m.take(1)
	if err != nil {
		return nil, err
	}
	flags := flagsB[0]
	simulator, err := m.str()
	if err != nil {
		return nil, err
	}
	d := &Dataset{
		Simulator: simulator,
		Window:    window,
		Horizon:   horizon,
		BGTarget:  bgTarget,
	}

	mlpPayload, err := c.section(secMLP)
	if err != nil {
		return nil, err
	}
	seqPayload, err := c.section(secSeq)
	if err != nil {
		return nil, err
	}
	scalarPayload, err := c.section(secScalars)
	if err != nil {
		return nil, err
	}
	intPayload, err := c.section(secInts)
	if err != nil {
		return nil, err
	}
	// Bound the declared shape by the blob before multiplying, so a crafted
	// header cannot overflow the size arithmetic.
	if nU > uint64(len(data)) || (nU > 0 && (mlpDimU > uint64(len(data))/nU || seqWidthU > uint64(len(data))/nU)) {
		return nil, fmt.Errorf("dataset: columnar: %d samples of dims %d/%d cannot fit a %d-byte blob", nU, mlpDimU, seqWidthU, len(data))
	}
	if len(mlpPayload) != 8*n*mlpDim || len(seqPayload) != 8*n*seqWidth ||
		len(scalarPayload) != 4*8*n || len(intPayload) != 4*8*n+n {
		return nil, fmt.Errorf("dataset: columnar: column sections sized %d/%d/%d/%d for %d samples (dims %d/%d)",
			len(mlpPayload), len(seqPayload), len(scalarPayload), len(intPayload), n, mlpDim, seqWidth)
	}

	if flags&flagSamples != 0 || n > 0 {
		mlpAll, err := floatColumn(mlpPayload, 0, n*mlpDim)
		if err != nil {
			return nil, err
		}
		seqAll, err := floatColumn(seqPayload, 0, n*seqWidth)
		if err != nil {
			return nil, err
		}
		var scalarCols [4][]float64
		for i := range scalarCols {
			if scalarCols[i], err = floatColumn(scalarPayload, i*8*n, n); err != nil {
				return nil, err
			}
		}
		hazards := intPayload[4*8*n:]
		intCol := func(col, i int) int {
			return int(int64(binary.LittleEndian.Uint64(intPayload[8*(col*n+i):])))
		}
		samples := make([]Sample, n)
		for i := range samples {
			s := &samples[i]
			if mlpDim > 0 {
				s.MLP = mlpAll[i*mlpDim : (i+1)*mlpDim : (i+1)*mlpDim]
			}
			if seqWidth > 0 {
				s.Seq = seqAll[i*seqWidth : (i+1)*seqWidth : (i+1)*seqWidth]
			}
			s.Knowledge = scalarCols[0][i]
			s.BG = scalarCols[1][i]
			s.DeltaBG = scalarCols[2][i]
			s.DeltaIOB = scalarCols[3][i]
			s.Label = intCol(0, i)
			s.EpisodeID = intCol(1, i)
			s.Step = intCol(2, i)
			s.Action = controller.Action(intCol(3, i))
			s.HazardNow = hazards[i] != 0
		}
		d.Samples = samples
	}

	epPayload, err := c.section(secEpisodes)
	if err != nil {
		return nil, err
	}
	e := &colReader{b: epPayload}
	nEpU, err := e.u64()
	if err != nil {
		return nil, err
	}
	if e.remaining()%16 != 0 || nEpU != uint64(e.remaining()/16) {
		return nil, fmt.Errorf("dataset: columnar: episode index holds %d bytes for %d episodes", e.remaining(), nEpU)
	}
	nEp := int(nEpU)
	if flags&flagEpisodes != 0 || nEp > 0 {
		d.EpisodeIndex = make([][2]int, nEp)
		for i := range d.EpisodeIndex {
			from, _ := e.i64()
			to, err := e.i64()
			if err != nil {
				return nil, err
			}
			if from < 0 || from > to || to > n {
				return nil, fmt.Errorf("dataset: columnar: episode %d spans samples [%d,%d) of %d", i, from, to, n)
			}
			d.EpisodeIndex[i] = [2]int{from, to}
		}
	}

	strSection := func(id int, present bool) ([]string, error) {
		payload, err := c.section(id)
		if err != nil {
			return nil, err
		}
		sr := &colReader{b: payload}
		countU, err := sr.u64()
		if err != nil {
			return nil, err
		}
		if countU > uint64(sr.remaining()/4) { // every string carries a 4-byte length
			return nil, fmt.Errorf("dataset: columnar: section %d lists %d strings in %d bytes", id, countU, sr.remaining())
		}
		count := int(countU)
		if !present && count == 0 {
			return nil, nil
		}
		out := make([]string, count)
		for i := range out {
			if out[i], err = sr.str(); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	if d.Scenarios, err = strSection(secScenarios, flags&flagScenarios != 0); err != nil {
		return nil, err
	}
	if d.Faults, err = strSection(secFaults, flags&flagFaults != 0); err != nil {
		return nil, err
	}

	normSection := func(id int, present bool) (*Normalizer, error) {
		payload, err := c.section(id)
		if err != nil {
			return nil, err
		}
		if !present {
			if len(payload) != 0 {
				return nil, fmt.Errorf("dataset: columnar: absent normalizer carries %d bytes", len(payload))
			}
			return nil, nil
		}
		nr := &colReader{b: payload}
		readCol := func() ([]float64, error) {
			countU, err := nr.u64()
			if err != nil {
				return nil, err
			}
			col, err := floatColumn(nr.b, nr.off, int(countU))
			if err != nil {
				return nil, err
			}
			nr.off += 8 * int(countU)
			return col, nil
		}
		mean, err := readCol()
		if err != nil {
			return nil, err
		}
		std, err := readCol()
		if err != nil {
			return nil, err
		}
		return &Normalizer{Mean: mean, Std: std}, nil
	}
	if d.MLPNorm, err = normSection(secMLPNorm, flags&flagMLPNorm != 0); err != nil {
		return nil, err
	}
	if d.SeqNorm, err = normSection(secSeqNorm, flags&flagSeqNorm != 0); err != nil {
		return nil, err
	}
	if c.remaining() != 0 {
		return nil, fmt.Errorf("dataset: columnar: %d trailing bytes after final section", c.remaining())
	}
	return d, nil
}

// DecodeColumnar reads a columnar blob from r. The bytes are buffered in
// memory and the float columns become views into that buffer — still one
// full copy; LoadColumnarFile avoids even that by borrowing mmap-ed pages.
//
//apslint:allow reach serves the columnar arm of BenchmarkCampaignLoad; folding it into DecodeColumnarBytes is its own change
func DecodeColumnar(r io.Reader) (*Dataset, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("dataset: columnar: %w", err)
	}
	return DecodeColumnarBytes(b)
}

// LoadColumnarFile decodes the columnar blob stored at byte offset off of
// the file at path, borrowing the file's pages via mmapio when possible.
// The returned dataset pins the mapped region for its lifetime; its
// feature columns are read-only views (see the package contract).
func LoadColumnarFile(path string, off int64) (*Dataset, error) {
	reg, err := mmapio.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: columnar: %w", err)
	}
	data := reg.Data()
	if off < 0 || off > int64(len(data)) {
		return nil, fmt.Errorf("dataset: columnar: payload offset %d outside %d-byte file", off, len(data))
	}
	d, err := DecodeColumnarBytes(data[off:])
	if err != nil {
		return nil, err
	}
	d.backing = reg
	return d, nil
}

// CachedColumnar is the get-or-create protocol for columnar-encoded
// datasets: it loads the entry under key from the store zero-copy (mmap-ed
// via LoadColumnarFile), falling back to create on any miss and persisting the fresh dataset
// columnar-encoded. requireSamples rejects cached empty datasets as
// corrupt (campaigns must be non-empty; shard ranges may legitimately be
// empty). artifact.Disabled{} always creates.
func CachedColumnar(store artifact.Store, key artifact.Key, create func() (*Dataset, error), requireSamples bool) (ds *Dataset, hit bool, err error) {
	hit, err = store.GetOrCreateFile(key,
		func(path string, payloadOff int64) error {
			var lerr error
			if ds, lerr = LoadColumnarFile(path, payloadOff); lerr != nil {
				return lerr
			}
			if requireSamples && ds.Len() == 0 {
				return fmt.Errorf("dataset: columnar: no samples")
			}
			return nil
		},
		func() error {
			var cerr error
			ds, cerr = create()
			return cerr
		},
		func(w io.Writer) error { return ds.EncodeColumnar(w) })
	return ds, hit, err
}
