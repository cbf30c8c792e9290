package core

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"

	"deepsqueeze/internal/dataset"
	"deepsqueeze/internal/mat"
	"deepsqueeze/internal/nn"
	"deepsqueeze/internal/pipeline"
	"deepsqueeze/internal/preprocess"
)

// maxStreamChunk bounds a single length-prefixed chunk an untrusted
// streaming archive may ask the reader to buffer (the chunk framing uses a
// uvarint, so a corrupt length could otherwise demand an absurd allocation
// before any content is validated).
const maxStreamChunk = 1 << 30

// WriterStats instruments an ArchiveWriter for bounded-memory verification.
type WriterStats struct {
	// Rows is the total rows written so far (including buffered ones).
	Rows int
	// Groups is the number of row-group segments flushed so far.
	Groups int
	// MaxBufferedRows is the high-water mark of rows held in the writer's
	// buffer. It never exceeds one row group plus one Write call's rows —
	// the structural guarantee that peak memory is O(row group), not
	// O(table).
	MaxBufferedRows int
	// BytesWritten is the archive bytes emitted so far.
	BytesWritten int64
}

// ArchiveWriter compresses a table of unbounded length into a version-2
// archive, streaming row-group segments to w as rows arrive. The model is
// trained once, on the first full row group (so the first segment is not
// emitted until RowGroupSize rows have been buffered or Close is called);
// every later group re-fits only the cheap preprocessing state — its plan
// rides along as a per-group override — and reuses the trained experts.
// Memory stays O(row group): see WriterStats.MaxBufferedRows.
//
// The resulting archive is a normal self-contained v2 archive: Decompress,
// DecompressContext, Inspect, and ArchiveReader all accept it.
type ArchiveWriter struct {
	w          io.Writer
	schema     *dataset.Schema
	thresholds []float64
	opts       Options
	pool       *pipeline.Pool
	run        *pipeline.Run

	buf       *dataset.Table
	groupSize int

	started    bool
	trainPlan  *preprocess.Plan
	experts    []*nn.Autoencoder
	decoders   []*nn.Decoder
	decs32     []*nn.Decoder32 // float32 views when the pilot set flagFloat32
	specs      []nn.ColSpec
	flags      byte
	codeBits   int
	codeSize   int
	numExperts int

	crc     hash.Hash32
	written int64
	rows    int
	metas   []groupMeta
	zones   [][]ZoneMap // per flushed group, when flagZoneMaps is set
	stats   WriterStats
	closed  bool
	err     error
}

// NewArchiveWriter returns a writer that streams a v2 archive for tables
// with the given schema to w. thresholds supplies per-column error bounds as
// in Compress. opts.RowGroupSize sets the rows per segment (0 = default).
func NewArchiveWriter(w io.Writer, schema *dataset.Schema, thresholds []float64, opts Options) (*ArchiveWriter, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts.Preproc = streamingResidualHeadroom(opts.Preproc)
	pool := pipeline.NewPool(opts.Parallelism)
	return &ArchiveWriter{
		w:          w,
		schema:     schema,
		thresholds: append([]float64(nil), thresholds...),
		opts:       opts,
		pool:       pool,
		run:        pipeline.NewWithPool(context.Background(), pool),
		buf:        dataset.NewTable(schema, 0),
		groupSize:  opts.rowGroupSize(),
		crc:        crc32.NewIEEE(),
	}, nil
}

// Write appends t's rows to the archive. t must have the writer's schema.
// Full row groups are compressed and flushed to the underlying writer as
// they fill; a partial group stays buffered until more rows arrive or Close.
func (aw *ArchiveWriter) Write(t *dataset.Table) error {
	if aw.err != nil {
		return aw.err
	}
	if aw.closed {
		return fmt.Errorf("core: write to closed ArchiveWriter")
	}
	if !t.Schema.Equal(aw.schema) {
		return fmt.Errorf("core: table schema differs from writer schema")
	}
	appendRows(aw.buf, t, 0, t.NumRows())
	aw.stats.Rows += t.NumRows()
	if n := aw.buf.NumRows(); n > aw.stats.MaxBufferedRows {
		aw.stats.MaxBufferedRows = n
	}
	for aw.buf.NumRows() >= aw.groupSize {
		chunk, rest := splitRows(aw.buf, aw.groupSize)
		if err := aw.flushGroup(chunk); err != nil {
			aw.err = err
			return err
		}
		aw.buf = rest
	}
	return nil
}

// Close flushes any buffered rows as a final (possibly short) row group,
// writes the footer index and checksum, and finalizes the archive. It does
// not close the underlying writer.
func (aw *ArchiveWriter) Close() error {
	if aw.err != nil {
		return aw.err
	}
	if aw.closed {
		return nil
	}
	aw.closed = true
	if aw.buf.NumRows() > 0 || !aw.started {
		if !aw.started && aw.buf.NumRows() == 0 {
			// Nothing was ever written: an empty in-memory compression
			// produces the canonical empty archive (one empty group).
			res, err := CompressContext(context.Background(), aw.buf, aw.thresholds, aw.opts)
			if err != nil {
				aw.err = err
				return err
			}
			if _, err := aw.w.Write(res.Archive); err != nil {
				aw.err = err
				return err
			}
			aw.stats.Groups = 1
			aw.stats.BytesWritten = int64(len(res.Archive))
			return nil
		}
		if err := aw.flushGroup(aw.buf); err != nil {
			aw.err = err
			return err
		}
		aw.buf = dataset.NewTable(aw.schema, 0)
	}
	if aw.flags&flagZoneMaps != 0 {
		var sb []byte
		sb = append(sb, kindStats)
		payload := appendZoneStatsPayload(nil, aw.zones)
		sb = binary.AppendUvarint(sb, uint64(len(payload)))
		sb = append(sb, payload...)
		if err := aw.writeRaw(sb); err != nil {
			aw.err = err
			return err
		}
	}
	footOff := aw.written
	var tail []byte
	tail = append(tail, kindFooter)
	payload := appendFooterPayload(nil, aw.rows, aw.metas)
	tail = binary.AppendUvarint(tail, uint64(len(payload)))
	tail = append(tail, payload...)
	var trailer [8]byte
	binary.LittleEndian.PutUint64(trailer[:], uint64(footOff))
	tail = append(tail, trailer[:]...)
	if err := aw.writeRaw(tail); err != nil {
		aw.err = err
		return err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], aw.crc.Sum32())
	if _, err := aw.w.Write(sum[:]); err != nil {
		aw.err = err
		return err
	}
	aw.stats.BytesWritten = aw.written + 4
	return nil
}

// Stats returns the writer's instrumentation counters.
func (aw *ArchiveWriter) Stats() WriterStats {
	st := aw.stats
	st.Groups = len(aw.metas)
	if st.Groups == 0 && aw.stats.Groups > 0 {
		st.Groups = aw.stats.Groups
	}
	if st.BytesWritten == 0 {
		st.BytesWritten = aw.written
	}
	return st
}

// writeRaw emits bytes to the underlying writer, updating the running
// checksum and offset.
func (aw *ArchiveWriter) writeRaw(b []byte) error {
	if _, err := aw.w.Write(b); err != nil {
		return err
	}
	aw.crc.Write(b)
	aw.written += int64(len(b))
	return nil
}

// start trains the model on the first chunk and writes the archive prefix.
// It runs a full in-memory compression of the chunk to reuse the compressor's
// decisions verbatim — expert count, code bits, mapping form, flags — then
// discards that archive; the chunk is re-materialized as the first segment.
func (aw *ArchiveWriter) start(chunk *dataset.Table) (*modelData, error) {
	res, experts, md, err := compress(context.Background(), aw.pool, chunk, aw.thresholds, aw.opts)
	if err != nil {
		return nil, err
	}
	aw.started = true
	aw.trainPlan = md.plan
	aw.experts = experts
	aw.specs = append([]nn.ColSpec(nil), md.specs...)
	aw.flags = res.Archive[5]
	aw.codeBits = res.CodeBits
	aw.numExperts = len(experts)
	if aw.numExperts == 0 {
		aw.numExperts = 1
	}
	if len(experts) > 0 {
		aw.codeSize = experts[0].CodeSize
		aw.decoders = make([]*nn.Decoder, len(experts))
		for e, ae := range experts {
			aw.decoders[e] = &ae.Decoder
		}
		if aw.flags&flagFloat32 != 0 {
			// The pilot archive's flags carry over verbatim, so every later
			// group's corrections must come from the same float32 inference.
			aw.decs32 = nn.Decoders32(aw.decoders)
		}
	}

	var prefix []byte
	prefix = append(prefix, magic[:]...)
	prefix = append(prefix, archiveVersion, aw.flags)
	hdr := appendHeaderPayload(nil, aw.trainPlan, aw.codeSize, aw.codeBits, aw.numExperts, aw.groupSize)
	prefix = binary.AppendUvarint(prefix, uint64(len(hdr)))
	prefix = append(prefix, hdr...)
	if aw.flags&flagHasModel != 0 {
		payload, err := appendDecoderChunkPayload(&archiveState{decoders: aw.decoders})
		if err != nil {
			return nil, err
		}
		prefix = binary.AppendUvarint(prefix, uint64(len(payload)))
		prefix = append(prefix, payload...)
	}
	if err := aw.writeRaw(prefix); err != nil {
		return nil, err
	}
	return md, nil
}

// flushGroup materializes one chunk of rows as a row-group segment and
// streams it out. The first chunk triggers training and the archive prefix;
// later chunks re-fit their plan against the training plan (pinned kinds,
// unseen values become escapes) and carry it as a segment-local override.
func (aw *ArchiveWriter) flushGroup(chunk *dataset.Table) error {
	var md *modelData
	var planChunk []byte
	if !aw.started {
		var err error
		if md, err = aw.start(chunk); err != nil {
			return err
		}
	} else {
		plan, err := refitPlan(chunk, aw.trainPlan, aw.thresholds, aw.opts)
		if err != nil {
			return err
		}
		if md, err = buildModelData(chunk, plan); err != nil {
			return err
		}
		if err := checkRefitSpecs(md.specs, aw.specs); err != nil {
			return err
		}
		planChunk = plan.AppendBinary(nil)
	}

	n := md.rows
	hasModel := aw.flags&flagHasModel != 0
	assign := make([]int, n)
	if hasModel && aw.numExperts > 1 {
		assign = (&nn.MoE{Experts: aw.experts}).Assign(md.x, md.targets)
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var dims [][]int64
	fs := &failureSet{
		ints:       make(map[int][]int64),
		resInts:    make(map[int][][]int64),
		exceptions: make(map[int][]int64),
		contMask:   make(map[int][]int64),
		contVals:   make(map[int][]float64),
	}
	if hasModel {
		codesF, err := encodeCodes(aw.run, aw.experts, assign, md.x)
		if err != nil {
			return err
		}
		if aw.flags&flagGrouped != 0 {
			perm = groupedPerm(assign)
		}
		var recM *mat.Matrix
		dims, recM = quantizeCodes(permuteRows(codesF, perm), aw.codeBits)
		origNum := make(map[int][]float64)
		for col := range md.contVals {
			origNum[col] = chunk.Num[col]
		}
		fs, err = computeFailures(aw.run, md, origNum, aw.decoders, aw.decs32, assign, recM, perm)
		if err != nil {
			return err
		}
	} else {
		for si, col := range md.specCols {
			cp := &md.plan.Cols[col]
			switch cp.Kind {
			case preprocess.KindNumContinuous:
				fs.contMask[col] = []int64{}
			case preprocess.KindCatResidual:
				if fs.resInts[col] == nil {
					fs.resInts[col] = make([][]int64, cp.ResDigits)
				}
				fs.resInts[col][md.specDigit[si]] = []int64{}
			default:
				fs.ints[col] = []int64{}
			}
		}
	}

	g := segmentData{
		span:      rowSpan{aw.rows, n},
		origBase:  0,
		planChunk: planChunk,
		dims:      dims,
		ints:      fs.ints,
		res:       fs.resInts,
		exc:       fs.exceptions,
		mask:      fs.contMask,
		vals:      fs.contVals,
		perm:      perm,
	}
	cfg := segConfig{
		hasModel:  hasModel,
		experts:   aw.numExperts,
		grouped:   aw.flags&flagGrouped != 0,
		keepOrder: aw.flags&flagRowOrder != 0,
		mask:      aw.opts.codecMask(),
	}
	framed, codes, mapping, failures, err := buildSegment(chunk, md, assign, cfg, g)
	if err != nil {
		return err
	}
	if aw.flags&flagZoneMaps != 0 {
		// The first group's md.plan is the training plan itself (sameEnc →
		// encoded-domain zones); re-fit groups get decoded-domain zones.
		aw.zones = append(aw.zones, computeGroupZones(chunk, perm, aw.trainPlan, md.plan))
	}
	off := aw.written
	var out []byte
	out = append(out, kindSegment)
	out = binary.AppendUvarint(out, uint64(len(framed)))
	out = append(out, framed...)
	if err := aw.writeRaw(out); err != nil {
		return err
	}
	aw.metas = append(aw.metas, groupMeta{
		start: aw.rows, count: n,
		off: off, segLen: aw.written - off,
		codes: codes, mapping: mapping, failures: failures,
	})
	aw.rows += n
	return nil
}

// appendRows copies rows [lo, hi) of src onto dst (same schema).
func appendRows(dst, src *dataset.Table, lo, hi int) {
	for i, c := range dst.Schema.Columns {
		if c.Type == dataset.Categorical {
			dst.Str[i] = append(dst.Str[i], src.Str[i][lo:hi]...)
		} else {
			dst.Num[i] = append(dst.Num[i], src.Num[i][lo:hi]...)
		}
	}
	dst.SetNumRows(dst.NumRows() + (hi - lo))
}

// splitRows cuts t into its first n rows and the remainder (both copies, so
// the head can be released once flushed).
func splitRows(t *dataset.Table, n int) (head, rest *dataset.Table) {
	head = dataset.NewTable(t.Schema, n)
	rest = dataset.NewTable(t.Schema, t.NumRows()-n)
	appendRows(head, t, 0, n)
	appendRows(rest, t, n, t.NumRows())
	return head, rest
}

// ArchiveReader decompresses a version-2 archive group by group from an
// io.Reader, holding at most one row group's streams in memory. Each call to
// Next returns the next row group's rows in original order — decoded by the
// same unpack → resolve → decode → assemble stage functions every
// handle-based request runs, over a one-group list — and io.EOF signals the
// end, after the footer index and the archive checksum have been verified
// against everything read.
//
// Version-1 archives (no row groups) are accepted for compatibility by
// buffering the whole archive and decompressing in memory; the single table
// is returned by the first Next. Streaming batch archives (external model)
// are rejected — use DecompressBatch.
type ArchiveReader struct {
	br  *bufio.Reader
	crc hash.Hash32
	pos int64

	d        *decompressor
	rowsSeen int
	metas    []groupMeta
	sawStats bool
	finished bool

	v1Table *dataset.Table // version-1 fallback, served once
	schema  *dataset.Schema
}

// NewArchiveReader reads the archive prefix (envelope, header, decoders)
// from r and prepares group-by-group decompression.
func NewArchiveReader(r io.Reader) (*ArchiveReader, error) {
	ar := &ArchiveReader{br: bufio.NewReader(r), crc: crc32.NewIEEE()}
	head := make([]byte, 6)
	if _, err := io.ReadFull(ar.br, head); err != nil {
		return nil, fmt.Errorf("%w: truncated archive: %v", ErrCorrupt, err)
	}
	if string(head[:4]) != string(magic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	version, flags := head[4], head[5]
	if version == archiveVersionV1 {
		rest, err := io.ReadAll(ar.br)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		t, err := Decompress(append(head, rest...))
		if err != nil {
			return nil, err
		}
		ar.v1Table = t
		ar.schema = t.Schema
		return ar, nil
	}
	if version != archiveVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, version)
	}
	ar.crcWrite(head)

	hdr, err := ar.readChunk()
	if err != nil {
		return nil, err
	}
	h, err := decodeHeader(hdr, version)
	if err != nil {
		return nil, err
	}
	lo, err := deriveLayout(h.plan)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if h.numExperts < 1 || h.numExperts > 1<<20 {
		return nil, fmt.Errorf("%w: %d experts", ErrCorrupt, h.numExperts)
	}
	d := &decompressor{
		run:        pipeline.New(context.Background(), 0),
		version:    version,
		flags:      flags,
		plan:       h.plan,
		lo:         lo,
		codeSize:   h.codeSize,
		codeBits:   h.codeBits,
		numExperts: h.numExperts,
		hasModel:   flags&flagHasModel != 0,
	}
	// Full selection: the streaming reader always decodes every column.
	if err := d.initSelection(nil); err != nil {
		return nil, err
	}
	if d.hasModel {
		if d.codeSize < 0 || d.codeSize > maxStreamChunk {
			return nil, fmt.Errorf("%w: code size %d", ErrCorrupt, d.codeSize)
		}
		if d.codeBits < 1 || d.codeBits > 32 {
			return nil, fmt.Errorf("%w: code bits %d outside [1,32]", ErrCorrupt, d.codeBits)
		}
		if d.decoderChunk, err = ar.readChunk(); err != nil {
			return nil, err
		}
		if err := d.unpackDecoders(); err != nil {
			return nil, err
		}
	}
	ar.d = d
	ar.schema = h.plan.Schema
	return ar, nil
}

// Schema returns the archived table's schema.
func (ar *ArchiveReader) Schema() *dataset.Schema { return ar.schema }

// Next returns the next row group's rows, or io.EOF after the last group
// once the footer and archive checksum verify. Empty groups (an empty
// archive still has one) yield an empty table.
func (ar *ArchiveReader) Next() (*dataset.Table, error) {
	if ar.v1Table != nil {
		t := ar.v1Table
		ar.v1Table = nil
		ar.finished = true
		return t, nil
	}
	if ar.finished {
		return nil, io.EOF
	}
	for {
		kind, err := ar.readByte()
		if err != nil {
			return nil, err
		}
		switch kind {
		case kindSegment:
			if ar.sawStats {
				return nil, fmt.Errorf("%w: segment after stats chunk", ErrCorrupt)
			}
			off := ar.pos - 1
			framed, err := ar.readChunk()
			if err != nil {
				return nil, err
			}
			t, meta, err := ar.decodeSegment(framed)
			if err != nil {
				return nil, err
			}
			meta.off, meta.segLen = off, ar.pos-off
			ar.metas = append(ar.metas, meta)
			ar.rowsSeen += meta.count
			return t, nil
		case kindStats:
			if ar.d.flags&flagZoneMaps == 0 || ar.sawStats {
				return nil, fmt.Errorf("%w: unexpected stats chunk", ErrCorrupt)
			}
			// Zone maps are query metadata; the streaming reader decodes
			// every group anyway, so the payload is only consumed (the
			// archive CRC still covers it).
			if _, err := ar.readChunk(); err != nil {
				return nil, err
			}
			ar.sawStats = true
		case kindFooter:
			if ar.d.flags&flagZoneMaps != 0 && !ar.sawStats {
				return nil, fmt.Errorf("%w: missing stats chunk", ErrCorrupt)
			}
			if err := ar.finish(); err != nil {
				return nil, err
			}
			ar.finished = true
			return nil, io.EOF
		default:
			return nil, fmt.Errorf("%w: chunk kind %d", ErrCorrupt, kind)
		}
	}
}

// decodeSegment parses, validates, and fully decodes one row-group segment.
func (ar *ArchiveReader) decodeSegment(framed []byte) (*dataset.Table, groupMeta, error) {
	var meta groupMeta
	d := ar.d
	body, err := segmentBody(framed)
	if err != nil {
		return nil, meta, err
	}
	nr := &sectionReader{buf: body}
	sh, err := nr.chunk()
	if err != nil {
		return nil, meta, err
	}
	shr := &sectionReader{buf: sh}
	start64, err := shr.uvarint()
	if err != nil {
		return nil, meta, err
	}
	count64, err := shr.uvarint()
	if err != nil {
		return nil, meta, err
	}
	hasPlan, err := shr.byte()
	if err != nil {
		return nil, meta, err
	}
	if err := shr.done(); err != nil {
		return nil, meta, err
	}
	if start64 != uint64(ar.rowsSeen) || count64 > uint64(maxArchiveRows-ar.rowsSeen) {
		return nil, meta, fmt.Errorf("%w: segment span [%d,+%d), want start %d", ErrCorrupt, start64, count64, ar.rowsSeen)
	}
	g := &groupDec{start: int(start64), count: int(count64), glo: 0, ghi: int(count64), active: true}
	if g.count > 0 && d.hasModel != (len(d.lo.specs) > 0) {
		return nil, meta, fmt.Errorf("%w: model flag disagrees with plan", ErrCorrupt)
	}
	switch hasPlan {
	case 0:
	case 1:
		if g.planChunk, err = nr.chunk(); err != nil {
			return nil, meta, err
		}
	default:
		return nil, meta, fmt.Errorf("%w: segment plan marker %d", ErrCorrupt, hasPlan)
	}
	var skipped int64
	if err := d.scanGroupBody(nr, g, &skipped); err != nil {
		return nil, meta, err
	}
	if err := nr.done(); err != nil {
		return nil, meta, err
	}
	// The request stages, over a one-group list: the same functions that
	// decode every handle-based request.
	d.groups, d.nOut = []*groupDec{g}, g.count
	if _, err := d.unpack(); err != nil {
		return nil, meta, err
	}
	if err := d.resolve(); err != nil {
		return nil, meta, err
	}
	if err := d.decode(); err != nil {
		return nil, meta, err
	}
	t, err := d.assembleTable()
	if err != nil {
		return nil, meta, err
	}
	meta.start, meta.count = g.start, g.count
	return t, meta, nil
}

// finish consumes and verifies the footer chunk, trailer, and archive CRC.
func (ar *ArchiveReader) finish() error {
	footOff := ar.pos - 1
	payload, err := ar.readChunk()
	if err != nil {
		return err
	}
	if err := ar.checkFooter(payload); err != nil {
		return err
	}
	trailer := make([]byte, 8)
	if err := ar.readFull(trailer); err != nil {
		return err
	}
	if int64(binary.LittleEndian.Uint64(trailer)) != footOff {
		return fmt.Errorf("%w: footer trailer points at %d, footer is at %d", ErrCorrupt, binary.LittleEndian.Uint64(trailer), footOff)
	}
	sum := make([]byte, 4)
	if _, err := io.ReadFull(ar.br, sum); err != nil {
		return fmt.Errorf("%w: truncated checksum: %v", ErrCorrupt, err)
	}
	if binary.LittleEndian.Uint32(sum) != ar.crc.Sum32() {
		return fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	if _, err := ar.br.ReadByte(); err != io.EOF {
		return fmt.Errorf("%w: trailing bytes after archive", ErrCorrupt)
	}
	return nil
}

// checkFooter verifies the footer payload against the segments actually read.
func (ar *ArchiveReader) checkFooter(payload []byte) error {
	fr := &sectionReader{buf: payload}
	rows64, err := fr.uvarint()
	if err != nil {
		return err
	}
	n64, err := fr.uvarint()
	if err != nil {
		return err
	}
	if rows64 != uint64(ar.rowsSeen) || n64 != uint64(len(ar.metas)) {
		return fmt.Errorf("%w: footer declares %d rows in %d groups, read %d rows in %d groups",
			ErrCorrupt, rows64, n64, ar.rowsSeen, len(ar.metas))
	}
	for i, m := range ar.metas {
		var vals [7]uint64
		for j := range vals {
			if vals[j], err = fr.uvarint(); err != nil {
				return err
			}
		}
		if vals[0] != uint64(m.start) || vals[1] != uint64(m.count) ||
			vals[2] != uint64(m.off) || vals[3] != uint64(m.segLen) {
			return fmt.Errorf("%w: footer group %d disagrees with segment read", ErrCorrupt, i)
		}
		if vals[4] > uint64(m.segLen) || vals[5] > uint64(m.segLen) || vals[6] > uint64(m.segLen) {
			return fmt.Errorf("%w: footer group %d section sizes exceed segment", ErrCorrupt, i)
		}
	}
	return fr.done()
}

// readByte consumes one byte, feeding the running checksum.
func (ar *ArchiveReader) readByte() (byte, error) {
	b, err := ar.br.ReadByte()
	if err != nil {
		return 0, fmt.Errorf("%w: truncated archive: %v", ErrCorrupt, err)
	}
	ar.crc.Write([]byte{b})
	ar.pos++
	return b, nil
}

// readFull fills b from the stream, feeding the running checksum.
func (ar *ArchiveReader) readFull(b []byte) error {
	if _, err := io.ReadFull(ar.br, b); err != nil {
		return fmt.Errorf("%w: truncated archive: %v", ErrCorrupt, err)
	}
	ar.crcWrite(b)
	return nil
}

// readChunk reads one length-prefixed chunk, feeding the running checksum.
func (ar *ArchiveReader) readChunk() ([]byte, error) {
	l, err := binary.ReadUvarint(readerFunc(ar.readByte))
	if err != nil {
		return nil, fmt.Errorf("%w: truncated chunk length: %v", ErrCorrupt, err)
	}
	if l > maxStreamChunk {
		return nil, fmt.Errorf("%w: chunk of %d bytes", ErrCorrupt, l)
	}
	b := make([]byte, int(l))
	if err := ar.readFull(b); err != nil {
		return nil, err
	}
	return b, nil
}

func (ar *ArchiveReader) crcWrite(b []byte) {
	ar.crc.Write(b)
	ar.pos += int64(len(b))
}

// readerFunc adapts a ReadByte method to io.ByteReader.
type readerFunc func() (byte, error)

func (f readerFunc) ReadByte() (byte, error) { return f() }

// maxArchiveRows is the format's row-count ceiling (2^31-1), shared by the
// in-memory and streaming readers.
const maxArchiveRows = 1<<31 - 1
