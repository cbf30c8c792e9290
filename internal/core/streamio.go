package core

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"slices"
	"sync"

	"deepsqueeze/internal/dataset"
	"deepsqueeze/internal/nn"
	"deepsqueeze/internal/pipeline"
	"deepsqueeze/internal/preprocess"
)

// WriterStats instruments an ArchiveWriter for bounded-memory verification.
type WriterStats struct {
	// Rows is the total rows written so far: framed, compressing, and
	// buffered.
	Rows int
	// Groups is the number of row-group segments framed so far; the group
	// still compressing is not among them.
	Groups int
	// MaxBufferedRows is the high-water mark of rows held in the writer's
	// buffer. It never exceeds one row group plus one Write call's rows —
	// the structural guarantee that peak memory is O(row group), not
	// O(table).
	MaxBufferedRows int
	// BytesWritten is the archive bytes emitted so far: the prefix and the
	// framed segments, and after Close the footer.
	BytesWritten int64
}

// ArchiveWriter compresses a table of unbounded length into a version-2
// archive, streaming row-group segments to w as rows arrive. The model is
// trained once, on the first full row group; every later group re-fits only
// the cheap preprocessing state — its plan rides along as a per-group
// override — and reuses the trained experts. Memory stays O(row group): see
// WriterStats.MaxBufferedRows.
//
// The writer compresses one group ahead: Write hands each full row group to a
// goroutine that compresses it and returns, so the caller parses its next
// rows while the group compresses. At most one group compresses at a time:
// the next Write that fills a group, or Close, waits for it and frames it, so
// a segment — the first one with the archive prefix in front — reaches w one
// full group later, or at Close. w is written only inside Write and Close, in
// the caller's goroutine. The writer holds the group compressing (or its
// built segment, waiting to be framed) and the filling buffer. A writer
// dropped without Close leaks nothing once its group is done. Parallelism
// counts the compression workers, the compressing goroutine included.
//
// The resulting archive is a normal self-contained v2 archive: Decompress,
// DecompressContext, Inspect, and ArchiveReader all accept it.
type ArchiveWriter struct {
	f          *framer
	schema     *dataset.Schema
	thresholds []float64
	opts       Options
	run        *pipeline.Run

	buf       *dataset.Table
	groupSize int
	rows      int // rows handed to groups, framed or compressing

	// pending delivers what the goroutine compressing a group built; nil
	// when no group is in flight.
	pending chan builtGroup

	// first is the first group's decided state, nil until that group is
	// framed: the trained experts, the training plan and the decisions (code
	// bits, mapping form) every later group is written under.
	first *archiveState
	cfg   segConfig

	maxBuffered int
	closed      bool
	err         error
}

// builtGroup is what the goroutine compressing one group hands back, for the
// caller's goroutine to frame: the first group's decided state with its
// serialized prefix and segment, or a later group's segment.
type builtGroup struct {
	first *archiveState
	arch  *builtArchive
	seg   builtSegment
	err   error
}

// NewArchiveWriter returns a writer that streams a v2 archive for tables
// with the given schema to w. thresholds supplies per-column error bounds as
// in Compress. opts.RowGroupSize sets the rows per segment (0 = default).
func NewArchiveWriter(w io.Writer, schema *dataset.Schema, thresholds []float64, opts Options) (*ArchiveWriter, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts.Preproc = streamingResidualHeadroom(opts.Preproc)
	return &ArchiveWriter{
		f:          newFramer(w),
		schema:     schema,
		thresholds: append([]float64(nil), thresholds...),
		opts:       opts,
		run:        pipeline.New(context.Background(), opts.Parallelism),
		buf:        dataset.NewTable(schema, 0),
		groupSize:  opts.rowGroupSize(),
	}, nil
}

// Write appends t's rows to the archive. t must have the writer's schema;
// its rows are copied, so the caller may reuse it. Each full row group is
// handed to the compressing goroutine, once the group before it is framed; a
// partial group stays buffered until more rows arrive or Close. A group the
// trained model cannot absorb (a retrain signal) is refused by the Write that
// completes it. A group's compression or framing error — w's errors among
// them — surfaces at a later Write that fills a group, or at Close; any
// error is returned by every call after it too.
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
	n := aw.buf.NumRows()
	aw.maxBuffered = max(aw.maxBuffered, n)
	if n < aw.groupSize {
		return nil
	}
	// Each full group is compressed from a view of the buffer; only the
	// partial tail is copied, once, into the next buffer, which leaves the
	// views to the groups alone.
	lo := 0
	for ; n-lo >= aw.groupSize; lo += aw.groupSize {
		if aw.err = aw.flushGroup(sliceRows(aw.buf, lo, lo+aw.groupSize)); aw.err != nil {
			return aw.err
		}
	}
	rest := dataset.NewTable(aw.schema, n-lo)
	appendRows(rest, aw.buf, lo, n)
	aw.buf = rest
	return nil
}

// Close compresses any buffered rows as a final (possibly short) row group —
// an archive nothing was written to still gets its one, empty, group — waits
// for the groups compressing and frames them, writes the footer index and
// checksum, and finalizes the archive. It returns the error of any group
// not reported yet, as Write does. It does not close the underlying writer.
func (aw *ArchiveWriter) Close() error {
	if aw.err != nil || aw.closed {
		return aw.err
	}
	aw.closed = true
	if aw.buf.NumRows() > 0 || aw.rows == 0 {
		if aw.err = aw.flushGroup(aw.buf); aw.err != nil {
			return aw.err
		}
		aw.buf = dataset.NewTable(aw.schema, 0)
	}
	if aw.err = aw.frameDone(); aw.err != nil {
		return aw.err
	}
	aw.err = aw.f.finish()
	return aw.err
}

// Stats returns the writer's instrumentation counters.
func (aw *ArchiveWriter) Stats() WriterStats {
	return WriterStats{
		Rows:            aw.rows + aw.buf.NumRows(),
		Groups:          len(aw.f.metas),
		MaxBufferedRows: aw.maxBuffered,
		BytesWritten:    aw.f.off,
	}
}

// flushGroup frames the group compressing, if one is, and hands chunk to a
// goroutine that compresses it. The first chunk trains the model there;
// a later chunk's plan is re-fitted against the training plan (pinned
// kinds, unseen values become escapes) and validated here first, so that a
// retrain signal fails the call that completes the group.
func (aw *ArchiveWriter) flushGroup(chunk *dataset.Table) error {
	if err := aw.frameDone(); err != nil {
		return err
	}
	if aw.first == nil {
		aw.spawn(func() builtGroup { return aw.compressFirst(chunk) })
		aw.rows += chunk.NumRows()
		return nil
	}
	trainPlan := aw.first.md.plan
	plan, err := refitPlan(chunk, trainPlan, aw.thresholds, aw.opts)
	if err != nil {
		return err
	}
	md, err := buildModelData(chunk, plan)
	if err != nil {
		return err
	}
	if err := checkRefitSpecs(md.specs, aw.first.md.specs); err != nil {
		return err
	}
	// The group's own state: the first group's model and decisions over this
	// group's model data.
	st := *aw.first
	st.md = md
	run, cfg, span := aw.run, aw.cfg, rowSpan{aw.rows, md.rows}
	aw.spawn(func() builtGroup {
		seg, err := compressRefit(run, chunk, &st, cfg, span, trainPlan)
		return builtGroup{seg: seg, err: err}
	})
	aw.rows += md.rows
	return nil
}

// spawn runs build on a goroutine that lives as long as the group: it hands
// its result over a one-slot channel, so it ends whether or not anyone waits.
func (aw *ArchiveWriter) spawn(build func() builtGroup) {
	done := make(chan builtGroup, 1)
	go func() { done <- build() }()
	aw.pending = done
}

// frameDone waits for the group compressing, if one is, and frames what it
// built through the writer's framer. The first group's decided state becomes
// the one every later group is written under.
func (aw *ArchiveWriter) frameDone() error {
	if aw.pending == nil {
		return nil
	}
	b := <-aw.pending
	aw.pending = nil
	if b.err != nil {
		return b.err
	}
	if b.first != nil {
		aw.first, aw.cfg = b.first, b.arch.cfg
		_, err := b.arch.frame(aw.f)
		return err
	}
	return aw.f.segment(b.seg)
}

// compressFirst trains the model on the first chunk and makes the archive's
// decisions on it — expert count, code bits, mapping form, flags — exactly as
// an in-memory compression of the chunk would, and serializes the prefix and
// the first segment from that state.
func (aw *ArchiveWriter) compressFirst(chunk *dataset.Table) builtGroup {
	st, _, err := trainAndDecide(aw.run, chunk, aw.thresholds, aw.opts)
	if err != nil {
		return builtGroup{err: err}
	}
	b, err := buildState(aw.run, chunk, aw.opts, st)
	if err != nil {
		return builtGroup{err: err}
	}
	// Later groups need the model, the decisions, the training plan and its
	// specs, and the inference memory; the first group's rows and streams are
	// let go.
	st.md = &modelData{layout: st.md.layout, plan: st.md.plan}
	st.rows, st.perm, st.assign, st.spans = nil, nil, nil, nil
	return builtGroup{first: st, arch: b}
}

// compressRefit is a refit group's CPU work: the expert assignment, the codes,
// the failures at the decided code width, the segment and its zones. st is
// the first group's model and decisions over this group's model data; span
// is the group's rows in the archive.
func compressRefit(run *pipeline.Run, chunk *dataset.Table, st *archiveState, cfg segConfig, span rowSpan, trainPlan *preprocess.Plan) (builtSegment, error) {
	md := st.md
	st.assign = make([]int, md.rows)
	hasModel := cfg.codeSize > 0
	if hasModel && st.experts > 1 {
		st.assign = (&nn.MoE{Experts: st.autoenc}).Assign(md.x, md.targets)
	}
	g := segmentData{
		span:      span,
		planChunk: md.plan.AppendBinary(nil),
		perm:      identityPerm(md.rows),
	}
	if hasModel {
		codesF, err := encodeCodes(run, st.autoenc, st.assign, md.x)
		if err != nil {
			return builtSegment{}, err
		}
		if st.grouped {
			g.perm = groupedPerm(st.assign)
		}
		if g.rows, err = computeFailures(run, st, codesF, st.codeBits); err != nil {
			return builtSegment{}, err
		}
	}
	seg := buildSegment(chunk, md, st.assign, cfg, g)
	if cfg.zoneMaps {
		// A re-fit group's plan differs from the header's, so its zones are
		// in the decoded domain.
		seg.zones = computeGroupZones(chunk, g.perm, trainPlan, md.plan)
	}
	return seg, nil
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

// sliceRows returns rows [lo, hi) of t as a table sharing t's storage, for
// read-only use while t stays untouched.
func sliceRows(t *dataset.Table, lo, hi int) *dataset.Table {
	v := &dataset.Table{Schema: t.Schema, Str: make([][]string, len(t.Str)), Num: make([][]float64, len(t.Num))}
	for i, c := range t.Schema.Columns {
		if c.Type == dataset.Categorical {
			v.Str[i] = t.Str[i][lo:hi:hi]
		} else {
			v.Num[i] = t.Num[i][lo:hi:hi]
		}
	}
	v.SetNumRows(hi - lo)
	return v
}

// ArchiveReader decompresses a version-2 archive group by group from an
// io.Reader. Each call to Next returns the next row group's rows in original
// order — decoded by the same unpack → resolve → decode → assemble stage
// functions every handle-based request runs, over a one-group list — and
// io.EOF signals the end, after the footer index and the archive checksum
// have been verified against everything read.
//
// The reader decodes one group ahead: while group k decodes, Next reads and
// checksums group k+1's segment and queues it for the goroutine decoding
// group k, which goes on to decode it the moment group k is done, so the
// caller renders group k while group k+1 decodes. That goroutine ends when
// no group is queued. The reader holds at most two decoded groups (the one
// the caller has, the one decoding) and one framed segment read ahead. The
// io.Reader is read only inside NewArchiveReader and Next, and an error
// surfaces in group order: a corrupt or truncated group fails the Next that
// would return it, and every Next after it.
//
// It takes the DecompressOptions a handle takes, and Next's tables
// concatenate to the handle's: Columns projects every group, and a RowRange
// passes over the groups outside it (read and checksummed, never unpacked)
// and decodes only the selected rows of the groups at its edges. A span
// ending past the last row fails at the footer, where the row count is known.
// Parallelism counts the decode workers, the goroutine decoding ahead
// included.
//
// Version-1 archives (no row groups) are accepted for compatibility by
// buffering the whole archive and decompressing in memory; the single table
// is returned by the first Next. Streaming batch archives (external model)
// are rejected at open — use DecompressBatch.
type ArchiveReader struct {
	br  *bufio.Reader
	crc hash.Hash32
	pos int64

	d        *decompressor
	rowsSeen int
	metas    []groupMeta
	sawStats bool

	ahead  *aheadGroup  // what the next Next returns; nil until the first Next
	stages []StageStats // the stages of the group the last Next returned
	v1     bool         // version-1 fallback: ahead holds the whole table
	schema *dataset.Schema

	mu       sync.Mutex  // guards the decode chain's hand-over
	decoding bool        // a goroutine is decoding; it takes queued next
	queued   *aheadGroup // read and checksummed, waiting for that goroutine
	failed   error       // a decode failed: no group after it is decoded
}

// aheadGroup is what a Next returns: a group read and checksummed, to be
// decoded or decoding, or a table or error known already. t, stages and err
// are written before done closes and read only after it; g and body belong
// to the decoding goroutine; last, set when nothing is read after the group
// (its error ends the read), belongs to the caller's goroutine.
type aheadGroup struct {
	done   chan struct{}
	t      *dataset.Table
	stages []StageStats
	err    error
	last   bool

	g    *groupDec
	body *sectionReader
}

// settled returns an aheadGroup with nothing left to decode: a version-1
// archive's table, or the error or io.EOF that ends a read.
func settled(t *dataset.Table, stages []StageStats, err error) *aheadGroup {
	p := &aheadGroup{done: make(chan struct{}), t: t, stages: stages, err: err, last: err != nil}
	close(p.done)
	return p
}

// NewArchiveReader reads the archive prefix (envelope, header, decoders)
// from r and prepares group-by-group decompression of what opts — at most
// one; none selects everything at NumCPU parallelism — selects. A positive
// MaxRows rejects an archive whose groups declare more rows as corrupt
// before any row-proportional allocation.
func NewArchiveReader(r io.Reader, opts ...DecompressOptions) (*ArchiveReader, error) {
	if len(opts) > 1 {
		return nil, fmt.Errorf("core: NewArchiveReader takes at most one DecompressOptions")
	}
	var o DecompressOptions
	if len(opts) == 1 {
		o = opts[0]
	}
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
		res, err := DecompressContext(context.Background(), append(head, rest...), o)
		if err != nil {
			return nil, err
		}
		ar.ahead, ar.v1 = settled(res.Table, res.Stages, nil), true
		ar.schema = res.Table.Schema
		return ar, nil
	}
	if version != archiveVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, version)
	}
	if flags&flagExternalModel != 0 {
		return nil, errBatchArchive
	}
	ar.crcWrite(head)

	hdr, err := ar.readChunk()
	if err != nil {
		return nil, err
	}
	m, err := newArchiveMeta(version, flags, hdr, maxStreamChunk)
	if err != nil {
		return nil, err
	}
	// The row count is not known before the footer: a span is checked for
	// sense here and against the rows at the footer.
	d := &decompressor{run: pipeline.New(context.Background(), o.Parallelism), opts: o, meta: m,
		infer: new(inferPool), slots: new(decodeSlots), rhi: maxArchiveRows}
	if err := d.initSelection(o.Columns); err != nil {
		return nil, err
	}
	if rr := o.RowRange; rr != nil {
		if err := rr.check(); err != nil {
			return nil, err
		}
		d.rlo, d.rhi = rr.Lo, rr.Hi
	}
	if m.hasModel {
		if m.decoderChunk, err = ar.readChunk(); err != nil {
			return nil, err
		}
		if d.needModel {
			if d.decoders, err = parseCheckedDecoders(m.decoderChunk, m.numExperts, m.codeSize, m.layout.specs); err != nil {
				return nil, err
			}
			d.decs32 = m.narrow(d.decoders)
		}
	}
	ar.d = d
	ar.schema = d.outSchema()
	return ar, nil
}

// Schema returns the schema of the tables Next returns: the archived
// table's, or its projection.
func (ar *ArchiveReader) Schema() *dataset.Schema { return ar.schema }

// Stages returns the stage stats of the group the last Next returned: the
// wall time and bytes of its scan, unpack, resolve, decode and assemble,
// timed on the goroutine that decoded it (a version-1 archive reports its
// in-memory request's stages). It is nil before the first group.
func (ar *ArchiveReader) Stages() []StageStats { return ar.stages }

// Next returns the next selected row group's rows, or io.EOF after the last
// group once the footer and archive checksum verify. Without a RowRange,
// empty groups (an empty archive still has one) yield an empty table.
func (ar *ArchiveReader) Next() (*dataset.Table, error) {
	if ar.ahead == nil {
		ar.ahead = ar.advance()
	}
	p := ar.ahead
	if !p.last {
		ar.ahead = ar.advance()
	}
	<-p.done
	if p.err != nil {
		p.last, ar.ahead = true, p
		return nil, p.err
	}
	ar.stages = p.stages
	return p.t, nil
}

// advance reads on, in the caller's goroutine, to the next selected group
// and hands it to the decode chain: queued for the goroutine decoding the
// group before it, or decoding at once on a goroutine of its own. It defers
// what ends the read — an error, or io.EOF — to the Next that would return
// the group.
func (ar *ArchiveReader) advance() *aheadGroup {
	g, body, err := ar.nextSegment()
	if err != nil {
		return settled(nil, nil, err)
	}
	ar.mu.Lock()
	defer ar.mu.Unlock()
	if ar.failed != nil {
		return settled(nil, nil, ar.failed)
	}
	p := &aheadGroup{done: make(chan struct{}), g: g, body: body}
	if ar.decoding {
		ar.queued = p
	} else {
		ar.decoding = true
		go ar.decodeChain(p)
	}
	return p
}

// nextSegment reads and checksums the segments up to the next selected
// group's, and returns that group and its segment body; at the footer it
// verifies the archive's end and returns io.EOF.
func (ar *ArchiveReader) nextSegment() (*groupDec, *sectionReader, error) {
	if ar.v1 {
		return nil, nil, io.EOF
	}
	for {
		kind, err := ar.readByte()
		if err != nil {
			return nil, nil, err
		}
		switch kind {
		case kindSegment:
			if ar.sawStats {
				return nil, nil, fmt.Errorf("%w: segment after stats chunk", ErrCorrupt)
			}
			off := ar.pos - 1
			framed, err := ar.readChunk()
			if err != nil {
				return nil, nil, err
			}
			g, body, err := ar.openSegment(framed)
			if err != nil {
				return nil, nil, err
			}
			ar.metas = append(ar.metas, groupMeta{start: g.start, count: g.count, off: off, segLen: ar.pos - off})
			ar.rowsSeen += g.count
			if g.active {
				return g, body, nil
			}
		case kindStats:
			if ar.d.meta.flags&flagZoneMaps == 0 || ar.sawStats {
				return nil, nil, fmt.Errorf("%w: unexpected stats chunk", ErrCorrupt)
			}
			// Zone maps are query metadata the streaming reader does not
			// prune by, so the payload is only consumed (the archive CRC
			// still covers it).
			if _, err := ar.readChunk(); err != nil {
				return nil, nil, err
			}
			ar.sawStats = true
		case kindFooter:
			if ar.d.meta.flags&flagZoneMaps != 0 && !ar.sawStats {
				return nil, nil, fmt.Errorf("%w: missing stats chunk", ErrCorrupt)
			}
			if err := ar.finish(); err != nil {
				return nil, nil, err
			}
			if rr := ar.d.opts.RowRange; rr != nil {
				if err := rr.within(ar.rowsSeen); err != nil {
					return nil, nil, err
				}
			}
			return nil, nil, io.EOF
		default:
			return nil, nil, fmt.Errorf("%w: chunk kind %d", ErrCorrupt, kind)
		}
	}
}

// openSegment checks one row-group segment's checksum, header and span, and
// clips it to the row span; a group outside the span comes back inactive,
// never to be unpacked.
func (ar *ArchiveReader) openSegment(framed []byte) (*groupDec, *sectionReader, error) {
	d := ar.d
	h, body, err := parseSegment(framed)
	if err != nil {
		return nil, nil, err
	}
	if h.start != uint64(ar.rowsSeen) || h.count > uint64(maxArchiveRows-ar.rowsSeen) {
		return nil, nil, fmt.Errorf("%w: segment span [%d,+%d), want start %d", ErrCorrupt, h.start, h.count, ar.rowsSeen)
	}
	if limit := d.opts.MaxRows; limit > 0 && h.count > uint64(limit-ar.rowsSeen) {
		return nil, nil, fmt.Errorf("%w: %d rows exceeds caller limit %d", ErrCorrupt, uint64(ar.rowsSeen)+h.count, limit)
	}
	g := &groupDec{start: int(h.start), count: int(h.count), planChunk: h.plan}
	if g.count > 0 && d.meta.hasModel != (len(d.meta.layout.specs) > 0) {
		return nil, nil, fmt.Errorf("%w: model flag disagrees with plan", ErrCorrupt)
	}
	d.clip(g, d.opts.RowRange == nil)
	return g, body, nil
}

// decodeChain decodes p and then, on the same goroutine, each group Next
// queues meanwhile, and ends when none is queued. One group decodes at a
// time, so each takes over the slots and inference states the one before it
// used, and the next starts the moment one is done, without a round trip
// through the caller's goroutine. p's done closes only once the group after
// it is taken from the queue, so the queue never holds two.
func (ar *ArchiveReader) decodeChain(p *aheadGroup) {
	for p != nil {
		ar.decodeGroup(p)
		ar.mu.Lock()
		if p.err != nil {
			ar.failed = p.err
		}
		next := ar.queued
		ar.queued = nil
		if next != nil && ar.failed != nil {
			next.err = ar.failed
			close(next.done)
			next = nil
		}
		ar.decoding = next != nil
		ar.mu.Unlock()
		close(p.done)
		p = next
	}
}

// decodeGroup decodes p's group from its segment body — scan → unpack →
// resolve → decode → assemble, the request stages over a one-group list,
// timed on a run of their own over the reader's worker pool, whose worker
// zero is the decoding goroutine.
func (ar *ArchiveReader) decodeGroup(p *aheadGroup) {
	d, g, body := ar.d, p.g, p.body
	p.g, p.body = nil, nil
	d.run = pipeline.NewWithPool(context.Background(), d.run.Pool())
	d.groups, d.nOut = []*groupDec{g}, g.ghi-g.glo
	p.err = d.decodeThrough(stage{"scan", func() (int64, error) {
		var skipped int64
		if err := d.scanGroupBody(body, g, &skipped); err != nil {
			return skipped, err
		}
		return skipped, body.done()
	}})
	if p.err == nil {
		p.err = d.run.Stage("assemble", func() (err error) {
			p.t, err = d.assembleTable()
			return err
		})
	}
	p.stages = d.run.Stats()
	d.groups = nil // the group's streams and framed bytes go with it
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
	rows, groups, err := decodeFooter(payload)
	if err != nil {
		return err
	}
	if rows != ar.rowsSeen || len(groups) != len(ar.metas) {
		return fmt.Errorf("%w: footer declares %d rows in %d groups, read %d rows in %d groups",
			ErrCorrupt, rows, len(groups), ar.rowsSeen, len(ar.metas))
	}
	for i, m := range ar.metas {
		if g := groups[i]; g.start != m.start || g.count != m.count || g.off != m.off || g.segLen != m.segLen {
			return fmt.Errorf("%w: footer group %d disagrees with segment read", ErrCorrupt, i)
		}
	}
	return nil
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
	// A corrupt length must not allocate more than the stream delivers: the
	// chunk grows a step at a time as its bytes arrive.
	const step = 1 << 20
	b := make([]byte, 0, min(l, step))
	for uint64(len(b)) < l {
		n := int(min(l-uint64(len(b)), step))
		b = slices.Grow(b, n)
		if err := ar.readFull(b[len(b) : len(b)+n]); err != nil {
			return nil, err
		}
		b = b[:len(b)+n]
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
