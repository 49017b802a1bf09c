package dataset

import (
	"encoding/binary"
	"fmt"
	"io"

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
// The blob is an artifact section container (see artifact.WriteSections)
// with magic "APSCOLMN" and ten sections in id order: meta, MLP floats,
// seq floats, scalar columns, int columns, episode index, scenarios,
// faults, MLP normalizer, seq normalizer. Sections without content carry
// empty payloads, so the offset structure is identical for every dataset
// shape, and every payload starts 8-byte aligned, so mmap-ed float columns
// are pointer-aligned for in-place reinterpretation.
//
// Views returned by the decoder (Sample.MLP, Sample.Seq, normalizer
// statistics) are read-only by contract: mapped pages lack PROT_WRITE.
// The viewsafe lint analyzer enforces the contract on Sample's feature
// columns repo-wide.

const (
	colMagic        = "APSCOLMN"
	colSectionCount = 10
)

// Section indexes, in file order (the on-disk id is the index + 1).
const (
	secMeta = iota
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

	var meta artifact.Buf
	meta.U64(uint64(n))
	meta.U64(uint64(mlpDim))
	meta.U64(uint64(seqWidth))
	meta.I64(d.Window)
	meta.I64(d.Horizon)
	meta.F64(d.BGTarget)
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
	meta.Byte(flags)
	meta.Str(d.Simulator)

	var mlp, seq artifact.Buf
	mlp.B = make([]byte, 0, 8*n*mlpDim)
	seq.B = make([]byte, 0, 8*n*seqWidth)
	for i := range d.Samples {
		mlp.Floats(d.Samples[i].MLP)
		seq.Floats(d.Samples[i].Seq)
	}

	var scalars artifact.Buf
	scalars.B = make([]byte, 0, 4*8*n)
	for _, get := range []func(*Sample) float64{
		func(s *Sample) float64 { return s.Knowledge },
		func(s *Sample) float64 { return s.BG },
		func(s *Sample) float64 { return s.DeltaBG },
		func(s *Sample) float64 { return s.DeltaIOB },
	} {
		for i := range d.Samples {
			scalars.F64(get(&d.Samples[i]))
		}
	}

	var ints artifact.Buf
	ints.B = make([]byte, 0, 4*8*n+n)
	for _, get := range []func(*Sample) int{
		func(s *Sample) int { return s.Label },
		func(s *Sample) int { return s.EpisodeID },
		func(s *Sample) int { return s.Step },
		func(s *Sample) int { return int(s.Action) },
	} {
		for i := range d.Samples {
			ints.I64(get(&d.Samples[i]))
		}
	}
	for i := range d.Samples {
		if d.Samples[i].HazardNow {
			ints.Byte(1)
		} else {
			ints.Byte(0)
		}
	}

	var episodes artifact.Buf
	episodes.U64(uint64(len(d.EpisodeIndex)))
	for _, r := range d.EpisodeIndex {
		episodes.I64(r[0])
		episodes.I64(r[1])
	}

	strSection := func(ss []string) []byte {
		var c artifact.Buf
		c.U64(uint64(len(ss)))
		for _, s := range ss {
			c.Str(s)
		}
		return c.B
	}
	err := artifact.WriteSections(w, colMagic, FormatVersion,
		meta.B, mlp.B, seq.B, scalars.B, ints.B, episodes.B,
		strSection(d.Scenarios), strSection(d.Faults),
		EncodeNormalizer(d.MLPNorm), EncodeNormalizer(d.SeqNorm))
	if err != nil {
		return fmt.Errorf("dataset: encode columnar: %w", err)
	}
	return nil
}

// EncodeNormalizer returns the section payload that stores nz: the mean
// and the std columns, each a uint64 count then little-endian float64s.
// Campaign blobs and monitor entries store normalizers this one way. A nil
// nz encodes as an empty payload.
func EncodeNormalizer(nz *Normalizer) []byte {
	if nz == nil {
		return nil
	}
	var c artifact.Buf
	c.U64(uint64(len(nz.Mean)))
	c.Floats(nz.Mean)
	c.U64(uint64(len(nz.Std)))
	c.Floats(nz.Std)
	return c.B
}

// DecodeNormalizer decodes a payload written by EncodeNormalizer. The
// statistics may be views into payload, read-only by contract.
func DecodeNormalizer(payload []byte) (*Normalizer, error) {
	nr := artifact.NewReader(payload)
	var cols [2][]float64 // mean, std
	for i := range cols {
		count := nr.U64()
		if count > uint64(nr.Remaining()/8) {
			return nil, fmt.Errorf("dataset: normalizer: %d values in %d bytes", count, nr.Remaining())
		}
		cols[i], _ = mmapio.Float64s(nr.Take(8 * int(count)))
	}
	if err := nr.Err(); err != nil {
		return nil, fmt.Errorf("dataset: normalizer: %w", err)
	}
	return &Normalizer{Mean: cols[0], Std: cols[1]}, nil
}

// DecodeColumnarBytes decodes a columnar blob. Float columns are
// reinterpreted in place when alignment and host endianness allow, so the
// returned dataset's Sample.MLP/Sample.Seq slices (and normalizer
// statistics) may be views into data — read-only by contract. The caller
// must keep data reachable for the dataset's lifetime (slices returned by
// mmapio keep heap-backed blobs alive automatically; mapped regions are
// process-lifetime).
func DecodeColumnarBytes(data []byte) (*Dataset, error) {
	secs, err := artifact.ReadSections(data, colMagic, FormatVersion, colSectionCount)
	if err != nil {
		return nil, fmt.Errorf("dataset: columnar: %w", err)
	}
	m := artifact.NewReader(secs[secMeta])
	nU, mlpDimU, seqWidthU := m.U64(), m.U64(), m.U64()
	n, mlpDim, seqWidth := int(nU), int(mlpDimU), int(seqWidthU)
	window, horizon, bgTarget := m.I64(), m.I64(), m.F64()
	flags, simulator := m.Byte(), m.Str()
	if err := m.Err(); err != nil {
		return nil, fmt.Errorf("dataset: columnar: meta: %w", err)
	}
	d := &Dataset{
		Simulator: simulator,
		Window:    window,
		Horizon:   horizon,
		BGTarget:  bgTarget,
	}

	mlpPayload, seqPayload := secs[secMLP], secs[secSeq]
	scalarPayload, intPayload := secs[secScalars], secs[secInts]
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
		// The sizes are exact (checked above), so every view below stays
		// inside its section.
		mlpAll, _ := mmapio.Float64s(mlpPayload)
		seqAll, _ := mmapio.Float64s(seqPayload)
		scalars, _ := mmapio.Float64s(scalarPayload)
		var scalarCols [4][]float64
		for i := range scalarCols {
			scalarCols[i] = scalars[i*n : (i+1)*n]
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

	e := artifact.NewReader(secs[secEpisodes])
	nEpU := e.U64()
	if e.Err() != nil || e.Remaining()%16 != 0 || nEpU != uint64(e.Remaining()/16) {
		return nil, fmt.Errorf("dataset: columnar: episode index holds %d bytes for %d episodes", e.Remaining(), nEpU)
	}
	nEp := int(nEpU)
	if flags&flagEpisodes != 0 || nEp > 0 {
		d.EpisodeIndex = make([][2]int, nEp)
		for i := range d.EpisodeIndex {
			from, to := e.I64(), e.I64() // in range: the size check above counted them
			if from < 0 || from > to || to > n {
				return nil, fmt.Errorf("dataset: columnar: episode %d spans samples [%d,%d) of %d", i, from, to, n)
			}
			d.EpisodeIndex[i] = [2]int{from, to}
		}
	}

	strSection := func(id int, present bool) ([]string, error) {
		sr := artifact.NewReader(secs[id])
		countU := sr.U64()
		if countU > uint64(sr.Remaining()/4) { // every string carries a 4-byte length
			return nil, fmt.Errorf("dataset: columnar: section %d lists %d strings in %d bytes", id, countU, sr.Remaining())
		}
		if !present && countU == 0 {
			return nil, sr.Err()
		}
		out := make([]string, countU)
		for i := range out {
			out[i] = sr.Str()
		}
		return out, sr.Err()
	}
	if d.Scenarios, err = strSection(secScenarios, flags&flagScenarios != 0); err != nil {
		return nil, err
	}
	if d.Faults, err = strSection(secFaults, flags&flagFaults != 0); err != nil {
		return nil, err
	}

	normSection := func(id int, present bool) (*Normalizer, error) {
		payload := secs[id]
		if !present {
			if len(payload) != 0 {
				return nil, fmt.Errorf("dataset: columnar: absent normalizer carries %d bytes", len(payload))
			}
			return nil, nil
		}
		return DecodeNormalizer(payload)
	}
	if d.MLPNorm, err = normSection(secMLPNorm, flags&flagMLPNorm != 0); err != nil {
		return nil, err
	}
	if d.SeqNorm, err = normSection(secSeqNorm, flags&flagSeqNorm != 0); err != nil {
		return nil, err
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
