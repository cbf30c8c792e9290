package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"deepsqueeze/internal/codec"
	"deepsqueeze/internal/dataset"
	"deepsqueeze/internal/mat"
	"deepsqueeze/internal/nn"
	"deepsqueeze/internal/pipeline"
	"deepsqueeze/internal/preprocess"
)

// RowRange selects the half-open span [Lo, Hi) of rows in original row
// order; every span, [0, 0) included, means itself. For archives written
// with KeepRowOrder disabled, "original order" is the stored
// (expert-grouped) order the full decompression would produce.
type RowRange struct {
	Lo, Hi int
}

// check rejects a span no table can satisfy: a negative bound or hi < lo.
func (rr *RowRange) check() error {
	if rr.Lo < 0 || rr.Hi < rr.Lo {
		return fmt.Errorf("core: bad row range [%d,%d)", rr.Lo, rr.Hi)
	}
	return nil
}

// within rejects a span that ends past a table of rows rows.
func (rr *RowRange) within(rows int) error {
	if rr.Hi > rows {
		return fmt.Errorf("core: row range [%d,%d) outside table of %d rows", rr.Lo, rr.Hi, rows)
	}
	return nil
}

// DecompressOptions configures DecompressContext and NewArchiveReader. The
// zero value decompresses everything at NumCPU parallelism — equivalent to
// plain Decompress.
type DecompressOptions struct {
	// Parallelism bounds the worker pool; <= 0 selects runtime.NumCPU().
	// Output is byte-for-byte identical at every parallelism level.
	Parallelism int

	// Columns projects the output onto the named schema columns. nil selects
	// every column. The output table's schema lists the selected columns in
	// archive schema order (not request order). Unselected columns' failure
	// streams are skipped without decoding, and decoder heads that only feed
	// unselected columns are never evaluated.
	Columns []string

	// RowRange, when non-nil, restricts the output to a span of rows in
	// original order; nil selects every row. In a version-2 archive, row
	// groups that do not overlap the span are skipped entirely — their
	// segments are never unpacked or decoded.
	RowRange *RowRange

	// MaxRows, when positive, rejects archives declaring more rows as
	// corrupt before any row-proportional allocation happens. Intended for
	// fuzzing and for callers handling untrusted archives.
	MaxRows int
}

// DecompressResult is a decompression outcome: the (possibly projected)
// table plus per-stage instrumentation.
type DecompressResult struct {
	Table *dataset.Table
	// Stages reports wall clock and bytes per pipeline stage in execution
	// order: parse, scan (bytes = archive bytes skipped by projection and
	// row-group skipping), unpack (bytes = encoded bytes decoded), resolve,
	// decode, assemble.
	Stages []StageStats
}

// Decompress reconstructs the table from an archive produced by Compress.
// Categorical, binary, value-dictionary, and fallback columns round-trip
// exactly; quantized and continuous numeric columns land within their
// archived error thresholds. Row order is preserved unless the archive was
// written with KeepRowOrder disabled.
//
// Streaming batch archives (which reference an external model) are read
// through DecompressBatch instead.
func Decompress(archive []byte) (*dataset.Table, error) {
	res, err := DecompressContext(context.Background(), archive, DecompressOptions{})
	if err != nil {
		return nil, err
	}
	return res.Table, nil
}

// DecompressContext is Decompress with cancellation, bounded parallelism,
// and query-aware projection: opts.Columns and opts.RowRange restrict the
// work to what the caller will read. The stages run over a shared worker
// pool and check ctx between stages and between parallel work items; output
// is byte-for-byte identical at every parallelism level.
func DecompressContext(ctx context.Context, archive []byte, opts DecompressOptions) (*DecompressResult, error) {
	a, err := Open(archive)
	if err != nil {
		return nil, err
	}
	return a.decompress(ctx, opts)
}

// corrupt classifies an error from a decoding sub-package as archive
// corruption, leaving already-classified and cancellation errors untouched.
func corrupt(err error) error {
	if err == nil || errors.Is(err, ErrCorrupt) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return fmt.Errorf("%w: %v", ErrCorrupt, err)
}

// groupDec is one row group's decoding state. A version-1 archive decodes as
// a single group covering every row; a version-2 archive has one groupDec
// per footer entry, and only groups overlapping the requested row range are
// parsed (active). Parallel stages write into disjoint per-group slots, so
// the result is independent of scheduling.
type groupDec struct {
	start, count int  // global row span [start, start+count)
	glo, ghi     int  // selected group-local row span [glo, ghi)
	outOff       int  // this group's first row in the assembled output
	active       bool // segment parsed (overlaps the request)
	meta         groupMeta

	// Raw chunk slices gathered by scan (views into the archive, no copies).
	planChunk    []byte
	dimChunks    [][]byte
	mappingChunk []byte
	colChunks    [][][]byte // per schema column, one per colStreams entry; unselected stay nil

	// Unpacked streams, all in the group's stored order: the code dimensions,
	// and per schema column one stream per colStreams entry (streams[col][i]
	// is entry i; unselected columns stay nil).
	plan    *preprocess.Plan // group plan (header plan unless overridden)
	dims    [][]int64
	perm    []int // stored position → group-local original row
	assign  []int // group-local original row → expert
	streams [][]stream

	// Resolved escape/correction queues, indexed by spec position.
	excAt   []map[int]int64
	valAt   []map[int]float64
	unperm  []int // group-local original row → stored position
	inOrder bool  // unperm is the identity: rows are stored in original order

	// Decoded model-column values in stored order, indexed by schema column.
	colCodes [][]int
	contOut  [][]float64

	// Decode-stage inputs, built once per group before the expert fan-out.
	rec   *mat.Matrix
	posBy [][]int
}

// decompressor carries one request's state shared across row groups. The
// immutable parsed metadata lives in meta (owned by an Archive handle when
// the request came through one; the streaming reader builds one from the
// archive prefix, without body, groups or row count); everything else here
// is per-request.
type decompressor struct {
	run  *pipeline.Run
	opts DecompressOptions
	mask []bool // DecodeBlocksRun's row groups; nil selects every group

	h    *Archive // owning handle; nil for the streaming reader
	meta *archiveMeta

	sel         []bool // schema column → selected
	selCols     []int  // selected schema columns, ascending
	wantSpec    []bool // spec position → selected
	needModel   bool   // any selected column needs decoder inference
	needMapping bool
	rlo, rhi    int // selected original-row span [rlo, rhi)

	decoders []*nn.Decoder
	decs32   []*nn.Decoder32 // float32 views when flagFloat32, parallel to decoders
	infer    *inferPool      // the reader's retained inference memory
	slots    *decodeSlots    // the streaming reader's reused decode slots; nil for a handle

	groups []*groupDec
	nOut   int // total output rows across surviving groups
}

// decompress runs the staged decompression — parse → scan → unpack →
// resolve → decode → assemble — as one request against the handle's parsed
// metadata. Requests are independent: all shared state on the handle is
// immutable or guarded by sync.Once, so concurrent calls are safe.
func (a *Archive) decompress(ctx context.Context, opts DecompressOptions) (*DecompressResult, error) {
	run := pipeline.New(ctx, opts.Parallelism)
	d, err := a.decodeStages(run, opts, nil)
	if err != nil {
		return nil, err
	}
	var out *dataset.Table
	err = run.Stage("assemble", func() (err error) {
		out, err = d.assembleTable()
		return err
	})
	if err != nil {
		return nil, err
	}
	return &DecompressResult{Table: out, Stages: run.Stats()}, nil
}

// decodeStages runs every stage short of assemble on run and returns the
// decompressor holding the decoded groups; the caller picks where assemble
// writes them (assembleTable or assembleBlocks). mask, when non-nil, has one
// entry per row group and decodes only the groups whose entry is true.
func (a *Archive) decodeStages(run *pipeline.Run, opts DecompressOptions, mask []bool) (*decompressor, error) {
	d := &decompressor{run: run, opts: opts, mask: mask, h: a, meta: a.meta, infer: &a.infer}
	err := d.decodeThrough(
		stage{"parse", func() (int64, error) { return 0, d.parse() }},
		stage{"scan", d.scan},
	)
	if err != nil {
		return nil, err
	}
	return d, nil
}

// stage is one named, timed request stage; fn returns the bytes the stage
// decoded or skipped, which its StageStats record.
type stage struct {
	name string
	fn   func() (int64, error)
}

// decodeThrough runs the leading stages that lay out and scan a request's
// groups, then unpack → resolve → decode, each timed on d.run, stopping at
// the first error. Handle requests and the streaming reader's groups share
// it.
func (d *decompressor) decodeThrough(lead ...stage) error {
	stages := append(lead,
		stage{"unpack", d.unpack},
		stage{"resolve", func() (int64, error) { return 0, d.resolve() }},
		stage{"decode", func() (int64, error) { return 0, d.decode() }},
	)
	for _, st := range stages {
		if err := d.run.StageBytes(st.name, st.fn); err != nil {
			return err
		}
	}
	return nil
}

// parse applies the request's row policy (MaxRows) to the handle's
// parsed-once metadata, resolves the projection, and lays out the row groups.
// The envelope, header, footer, and layout were all validated by Open.
func (d *decompressor) parse() error {
	m := d.meta
	if d.opts.MaxRows > 0 && m.rows > d.opts.MaxRows {
		return fmt.Errorf("%w: %d rows exceeds caller limit %d", ErrCorrupt, m.rows, d.opts.MaxRows)
	}
	if err := d.initSelection(d.opts.Columns); err != nil {
		return err
	}

	// Row range.
	d.rlo, d.rhi = 0, m.rows
	if rr := d.opts.RowRange; rr != nil {
		if err := rr.check(); err != nil {
			return err
		}
		if err := rr.within(m.rows); err != nil {
			return err
		}
		d.rlo, d.rhi = rr.Lo, rr.Hi
	}

	// Row groups: one per footer entry, active only when it overlaps the
	// request (a full-range request keeps every group active, including
	// empty ones) and is not masked out.
	full := d.rlo == 0 && d.rhi == m.rows
	d.groups = make([]*groupDec, len(m.groups))
	for i, gm := range m.groups {
		g := &groupDec{start: gm.start, count: gm.count, meta: gm}
		d.clip(g, full)
		if d.mask != nil && !d.mask[i] {
			g.active = false
			g.ghi = g.glo
		}
		d.groups[i] = g
	}
	// Output layout: surviving groups' selected rows concatenate in archive
	// order; each group remembers where its slice of the output starts.
	n := 0
	for _, g := range d.groups {
		g.outOff = n
		if g.active {
			n += g.ghi - g.glo
		}
	}
	d.nOut = n
	return nil
}

// clip sets a group's selected local span [glo, ghi) from the request's
// row span [rlo, rhi), and activates the group when that span is not empty
// or the request selects every row.
func (d *decompressor) clip(g *groupDec, full bool) {
	g.glo = max(d.rlo-g.start, 0)
	g.ghi = max(min(d.rhi-g.start, g.count), g.glo)
	g.active = full || g.ghi > g.glo
}

// initSelection resolves a column projection (nil selects everything) into
// the request's selection state: sel, selCols, wantSpec, needModel, and
// needMapping, against the plan, layout and flags in d.meta. It is shared by
// handle-based requests and the streaming reader.
func (d *decompressor) initSelection(columns []string) error {
	ncols := len(d.meta.plan.Cols)
	d.sel = make([]bool, ncols)
	if columns == nil {
		for col := range d.sel {
			d.sel[col] = true
		}
	} else {
		byName := make(map[string]int, ncols)
		names := make([]string, ncols)
		for col, c := range d.meta.plan.Schema.Columns {
			byName[c.Name], names[col] = col, c.Name
		}
		for _, name := range columns {
			col, ok := byName[name]
			if !ok {
				return fmt.Errorf("core: unknown column %q (columns: %s)", name, strings.Join(names, ", "))
			}
			d.sel[col] = true
		}
	}
	for col, s := range d.sel {
		if s {
			d.selCols = append(d.selCols, col)
		}
	}
	if len(d.selCols) == 0 && columns != nil {
		return fmt.Errorf("core: no columns selected")
	}
	d.wantSpec = make([]bool, len(d.meta.layout.specs))
	for si, col := range d.meta.layout.specCols {
		d.wantSpec[si] = d.sel[col]
	}
	d.needModel = false
	if d.meta.hasModel {
		for _, w := range d.wantSpec {
			if w {
				d.needModel = true
				break
			}
		}
	}
	// Mapping is needed for expert routing (decode) and, when rows were
	// stored expert-grouped with original order preserved, for assembly of
	// any column. A projection touching neither can skip it.
	d.needMapping = d.meta.numExperts > 1 &&
		(d.needModel || (d.meta.flags&flagGrouped != 0 && d.meta.flags&flagRowOrder != 0))
	return nil
}

// scan walks the archive's chunk skeleton sequentially, retaining slices for
// sections the projection needs and skipping the rest — including the whole
// segment of any row group outside the requested range — without touching
// their contents. Returns the number of payload bytes skipped.
func (d *decompressor) scan() (int64, error) {
	m := d.meta
	var skipped int64
	if m.hasModel && !d.needModel {
		// The decoder chunk was located by Open; a request that does not
		// need the model counts its payload as skipped.
		skipped += int64(len(m.decoderChunk))
	}
	// Each request walks the body with its own reader, from the first
	// row-group section on.
	r := &sectionReader{buf: m.body, pos: m.bodyPos}
	for _, g := range d.groups {
		plan, body, n, err := m.segment(r, g.meta, g.active)
		if err != nil {
			return skipped, err
		}
		if !g.active {
			skipped += n
			continue
		}
		g.planChunk = plan
		if err := d.scanGroupBody(body, g, &skipped); err != nil {
			return skipped, err
		}
		if err := body.done(); err != nil {
			return skipped, err
		}
	}
	// The zone-map stats chunk between the last segment and the footer is
	// query metadata, not row data: it is checked to be there and not added
	// to the skipped-bytes counter (a full decode still reports 0 bytes
	// skipped). The footer behind it was validated by Open.
	_, err := m.statsChunk(int64(r.pos))
	return skipped, err
}

// scanGroupBody walks one group's section chunks — code dimensions, expert
// mapping, per-column failure streams — taking the ones the projection needs
// and skipping the rest. The chunk-count structure follows the shared header
// plan; a corrupt group plan that would disagree surfaces as a chunk
// overrun or trailing-bytes error.
func (d *decompressor) scanGroupBody(r *sectionReader, g *groupDec, skipped *int64) error {
	take := func(dst *[]byte, needed bool) error {
		if needed {
			c, err := r.chunk()
			if err != nil {
				return err
			}
			*dst = c
			return nil
		}
		n, err := r.skip()
		*skipped += n
		return err
	}
	if d.meta.hasModel {
		g.dimChunks = make([][]byte, d.meta.codeSize)
		for i := range g.dimChunks {
			if err := take(&g.dimChunks[i], d.needModel); err != nil {
				return err
			}
		}
	}
	if d.meta.numExperts > 1 {
		if err := take(&g.mappingChunk, d.needMapping); err != nil {
			return err
		}
	}
	g.colChunks = make([][][]byte, len(d.meta.plan.Cols))
	for col := range d.meta.plan.Cols {
		g.colChunks[col] = make([][]byte, len(colStreams(d.meta.plan, d.meta.layout, col)))
		for i := range g.colChunks[col] {
			if err := take(&g.colChunks[col][i], d.sel[col]); err != nil {
				return err
			}
		}
	}
	return nil
}

// unpack decodes every retained section concurrently across all active
// groups: decoder parse, group plan overrides, code dimensions, expert
// mappings, and the selected columns' failure streams. Each work item writes
// its own slot. Returns the number of encoded bytes decoded.
func (d *decompressor) unpack() (int64, error) {
	var bytes int64
	var items []func() error
	add := func(chunk []byte, fn func() error) {
		bytes += int64(len(chunk))
		items = append(items, fn)
	}
	if d.needModel && d.decoders == nil {
		// Requests through a handle share its parsed-once decoder cache (a
		// batch archive's handle holds its model's decoders there); the
		// streaming reader parsed its decoders when it read the archive
		// prefix. The chunk's bytes count as decoded work for the request
		// that loads them.
		add(d.meta.decoderChunk, func() (err error) {
			d.decoders, d.decs32, err = d.h.decoders()
			return err
		})
	}
	for _, g := range d.groups {
		if !g.active {
			continue
		}
		d.unpackGroupItems(g, add)
	}
	err := d.run.ForEach(len(items), func(i int) error { return items[i]() })
	return bytes, err
}

// unpackGroupItems initializes a group's decoded-stream slots and appends
// the group's unpack work items: its plan override, its code dimensions and
// mapping when the request needs them, and one item per colStreams entry of
// every selected column.
func (d *decompressor) unpackGroupItems(g *groupDec, add func(chunk []byte, fn func() error)) {
	g.plan = d.meta.plan
	g.perm = identityPerm(g.count)
	g.assign = make([]int, g.count)
	if g.planChunk != nil {
		add(g.planChunk, func() error { return d.unpackGroupPlan(g) })
	}
	if d.needModel {
		g.dims = make([][]int64, d.meta.codeSize)
		for i, chunk := range g.dimChunks {
			add(chunk, func() error {
				s, err := unpackStream(chunk, streamKey{codeDim, 0, i}, g.count)
				g.dims[i] = s.ints
				return err
			})
		}
	}
	if d.needMapping {
		add(g.mappingChunk, func() error { return d.unpackMapping(g) })
	}
	g.streams = make([][]stream, len(d.meta.plan.Cols))
	for _, col := range d.selCols {
		g.streams[col] = make([]stream, len(g.colChunks[col]))
		for i, e := range colStreams(d.meta.plan, d.meta.layout, col) {
			chunk, dst := g.colChunks[col][i], &g.streams[col][i]
			add(chunk, func() (err error) {
				*dst, err = unpackStream(chunk, streamKey{e.kind, col, e.digit}, g.count)
				return err
			})
		}
	}
}

// unpackGroupPlan decodes and validates a group's plan override. The group
// plan may carry different per-group dictionaries, scalers, and quantizers
// (the streaming writer re-fits them per batch), but must agree with the
// header plan on everything structural: schema, model-column specs, and the
// chunks each column stores.
func (d *decompressor) unpackGroupPlan(g *groupDec) error {
	plan, used, err := preprocess.DecodePlan(g.planChunk)
	if err != nil {
		return corrupt(err)
	}
	if used != len(g.planChunk) {
		return fmt.Errorf("%w: trailing group plan bytes", ErrCorrupt)
	}
	if !plan.Schema.Equal(d.meta.plan.Schema) {
		return fmt.Errorf("%w: group plan schema differs from header", ErrCorrupt)
	}
	glo, err := deriveLayout(plan)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if len(glo.specs) != len(d.meta.layout.specs) {
		return fmt.Errorf("%w: group plan has %d model columns, header %d", ErrCorrupt, len(glo.specs), len(d.meta.layout.specs))
	}
	for i := range glo.specs {
		if glo.specs[i] != d.meta.layout.specs[i] {
			return fmt.Errorf("%w: group plan model column %d differs from header", ErrCorrupt, i)
		}
	}
	for col := range plan.Cols {
		if glo.specOfCol[col] != d.meta.layout.specOfCol[col] ||
			!slices.Equal(colStreams(plan, glo, col), colStreams(d.meta.plan, d.meta.layout, col)) {
			return fmt.Errorf("%w: group plan column %d structure differs from header", ErrCorrupt, col)
		}
	}
	g.plan = plan
	return nil
}

// narrow returns the float32 views of decoders that an archive carrying
// flagFloat32 decodes through, nil otherwise. No writer sets the flag any
// more; the archives that carry it still decode bit for bit (DESIGN.md §15).
func (m *archiveMeta) narrow(decoders []*nn.Decoder) []*nn.Decoder32 {
	if m.flags&flagFloat32 == 0 {
		return nil
	}
	return nn.Decoders32(decoders)
}

// parseCheckedDecoders inflates a decoder section and validates every
// expert's shape against the header — the single parsing routine shared by
// the Archive handle's cache, byte-slice decompression, and the streaming
// reader (it used to be duplicated across decompress.go and streamio.go).
func parseCheckedDecoders(section []byte, numExperts, codeSize int, specs []nn.ColSpec) ([]*nn.Decoder, error) {
	decoders, err := parseDecoderSection(section, numExperts)
	if err != nil {
		return nil, corrupt(err)
	}
	if err := checkDecoderShapes(decoders, codeSize, specs); err != nil {
		return nil, err
	}
	return decoders, nil
}

// checkDecoderShapes verifies each decoder agrees with the header on code
// size and output specs: inference addresses a column's head by the header's
// spec, so a decoder whose spec list differs only in kinds is as corrupt as
// one of another length.
func checkDecoderShapes(decoders []*nn.Decoder, codeSize int, specs []nn.ColSpec) error {
	for e, dec := range decoders {
		if dec.CodeSize != codeSize || !slices.Equal(dec.Specs, specs) {
			return fmt.Errorf("%w: decoder %d shape mismatch", ErrCorrupt, e)
		}
	}
	return nil
}

// unpackMapping decodes one group's mapping chunk into perm (stored position
// → group-local original row) and assign (group-local original row →
// expert).
func (d *decompressor) unpackMapping(g *groupDec) error {
	mb := g.mappingChunk
	if d.meta.flags&flagGrouped != 0 {
		keepOrder := d.meta.flags&flagRowOrder != 0
		mpos, s := 0, 0
		for e := 0; e < d.meta.numExperts; e++ {
			cnt64, sz := binary.Uvarint(mb[mpos:])
			if sz <= 0 {
				return fmt.Errorf("%w: truncated mapping", ErrCorrupt)
			}
			mpos += sz
			if cnt64 > uint64(g.count) {
				return fmt.Errorf("%w: mapping counts exceed rows", ErrCorrupt)
			}
			cnt := int(cnt64)
			if s+cnt > g.count {
				return fmt.Errorf("%w: mapping counts exceed rows", ErrCorrupt)
			}
			if keepOrder {
				l, sz := binary.Uvarint(mb[mpos:])
				if sz <= 0 || uint64(len(mb)-mpos-sz) < l {
					return fmt.Errorf("%w: truncated mapping indexes", ErrCorrupt)
				}
				mpos += sz
				idx, err := codec.DecompressInts(mb[mpos:mpos+int(l)], cnt)
				if err != nil {
					return corrupt(err)
				}
				mpos += int(l)
				if len(idx) != cnt {
					return fmt.Errorf("%w: mapping index count", ErrCorrupt)
				}
				for _, orig := range idx {
					if orig < 0 || orig >= int64(g.count) {
						return fmt.Errorf("%w: mapping index %d", ErrCorrupt, orig)
					}
					g.perm[s] = int(orig)
					g.assign[orig] = e
					s++
				}
			} else {
				for k := 0; k < cnt; k++ {
					g.perm[s] = s
					g.assign[s] = e
					s++
				}
			}
		}
		if s != g.count || mpos != len(mb) {
			return fmt.Errorf("%w: mapping does not cover all rows", ErrCorrupt)
		}
	} else {
		labels, err := codec.DecompressInts(mb, g.count)
		if err != nil {
			return corrupt(err)
		}
		if len(labels) != g.count {
			return fmt.Errorf("%w: %d labels for %d rows", ErrCorrupt, len(labels), g.count)
		}
		for i, l := range labels {
			if l < 0 || int(l) >= d.meta.numExperts {
				return fmt.Errorf("%w: label %d", ErrCorrupt, l)
			}
			g.assign[i] = int(l)
		}
	}
	if d.meta.flags&flagRowOrder == 0 {
		// Row order was not preserved: the table is reconstructed in stored
		// order, which perm already reflects (identity).
		return nil
	}
	return validatePerm(g.perm)
}

// resolve maps each selected column's sparse escape/correction queue to
// stored positions (one work item per group × spec column), inverts each
// group's perm, and allocates the decode output slots.
func (d *decompressor) resolve() error {
	type work struct {
		g  *groupDec
		si int
	}
	var items []work
	for _, g := range d.groups {
		if !g.active {
			continue
		}
		d.resolveGroupInit(g)
		for si := range d.meta.layout.specs {
			if d.wantSpec[si] {
				items = append(items, work{g, si})
			}
		}
	}
	return d.run.ForEach(len(items), func(i int) error {
		return d.resolveSpec(items[i].g, items[i].si)
	})
}

// resolveGroupInit inverts a group's perm and sets up its decode slots.
func (d *decompressor) resolveGroupInit(g *groupDec) {
	ncols := len(d.meta.plan.Cols)
	var fresh decodeSlots
	s := d.slots
	if s == nil {
		s = &fresh
	}
	if len(s.colCodes) != ncols {
		s.colCodes, s.contOut = make([][]int, ncols), make([][]float64, ncols)
	}
	g.unperm = reuse(&s.unperm, g.count)
	g.inOrder = true
	for s, orig := range g.perm {
		g.unperm[orig] = s
		g.inOrder = g.inOrder && orig == s
	}
	g.colCodes, g.contOut = s.colCodes, s.contOut
	for si, col := range d.meta.layout.specCols {
		// Residual columns repeat in specCols, one entry per digit; the
		// digits accumulate into digit 0's zeroed code slice.
		if !d.wantSpec[si] || d.meta.layout.specDigit[si] > 0 {
			continue
		}
		if d.meta.plan.Cols[col].Kind == preprocess.KindNumContinuous {
			reuse(&g.contOut[col], g.count)
		} else {
			reuse(&g.colCodes[col], g.count)
		}
	}
	g.excAt = make([]map[int]int64, len(d.meta.layout.specs))
	g.valAt = make([]map[int]float64, len(d.meta.layout.specs))
}

// decodeSlots are a group's decode slots: its inverted perm, and per schema
// column its model codes or continuous values. A streaming reader decodes
// one group at a time and keeps one set (decompressor.slots), which each
// group takes over from the one before it; a handle request decodes its
// groups side by side, each in fresh slots.
type decodeSlots struct {
	unperm   []int
	colCodes [][]int
	contOut  [][]float64
}

// reuse sets *slot to n zeroed elements, in its own storage when that holds
// enough, and returns it.
func reuse[T any](slot *[]T, n int) []T {
	if cap(*slot) < n {
		*slot = make([]T, n)
	} else {
		*slot = (*slot)[:n]
		clear(*slot)
	}
	return *slot
}

// resolveSpec builds one group × spec column's escape/correction queue map.
func (d *decompressor) resolveSpec(g *groupDec, si int) error {
	spec := d.meta.layout.specs[si]
	col := d.meta.layout.specCols[si]
	fail := g.streams[col] // per-row stream, then its escape queue
	if d.meta.plan.Cols[col].Kind == preprocess.KindNumContinuous {
		at := make(map[int]float64)
		queue := fail[1].floats
		qi := 0
		for s, m := range fail[0].ints {
			if m != 0 {
				if qi >= len(queue) {
					return fmt.Errorf("%w: column %d correction queue exhausted", ErrCorrupt, col)
				}
				at[s] = queue[qi]
				qi++
			}
		}
		if qi != len(queue) {
			return fmt.Errorf("%w: column %d has %d unused corrections", ErrCorrupt, col, len(queue)-qi)
		}
		g.valAt[si] = at
		return nil
	}
	if spec.Kind != nn.OutCategorical || d.meta.plan.Cols[col].Kind == preprocess.KindCatResidual {
		// Residual digits never escape: there is no exception queue to
		// resolve, and rank validation happens when the digit is applied.
		return nil
	}
	at := make(map[int]int64)
	queue := fail[1].ints
	qi := 0
	for s, f := range fail[0].ints {
		if int(f) == spec.Card {
			if qi >= len(queue) {
				return fmt.Errorf("%w: column %d exception queue exhausted", ErrCorrupt, col)
			}
			v := queue[qi]
			if v < 0 || int(v) >= g.plan.Cols[col].Dict.Len() {
				return fmt.Errorf("%w: column %d exception code %d", ErrCorrupt, col, v)
			}
			at[s] = v
			qi++
		}
	}
	if qi != len(queue) {
		return fmt.Errorf("%w: column %d has %d unused exceptions", ErrCorrupt, col, len(queue)-qi)
	}
	g.excAt[si] = at
	return nil
}

// decode replays decoder inference over the pool — one work item per group ×
// expert × part (decodeItems), each in an inference state borrowed from the
// reader's retained pool — applying the failure streams to recover the
// selected model columns' codes in stored order. Only selected spec columns
// are inferred and only stored positions inside the row range are fed
// through.
func (d *decompressor) decode() error {
	if !d.needModel {
		return nil
	}
	items := d.decodeItems()
	return d.run.ForEach(len(items), func(i int) error {
		it := items[i]
		st := d.infer.get()
		defer d.infer.put(st)
		return d.decodeExpert(it.g, it.e, it.pos, st)
	})
}

// minPartRows is the fewest stored positions decodeItems splits a group ×
// expert into parts of: smaller parts would pay the per-batch fixed costs of
// inference for too few rows.
const minPartRows = 256

// decodeItem is one decode work item: a contiguous part of group g × expert
// e's stored positions.
type decodeItem struct {
	g   *groupDec
	e   int
	pos []int
}

// decodeItems prepares every decoded group (decodeGroupInit) and splits each
// group × expert's stored positions into min(Parallelism, ⌈n/minPartRows⌉)
// contiguous parts of near-equal size, at least one, so that a group with
// one expert still decodes on every worker. At Parallelism 1 that is one
// item per group × expert. Parts write disjoint stored positions, and every
// decoder layer computes each row independently of the batch it rides in,
// so where a part boundary falls cannot move a bit of the output.
func (d *decompressor) decodeItems() []decodeItem {
	par := d.run.Parallelism()
	var items []decodeItem
	for _, g := range d.groups {
		if !g.active || g.ghi <= g.glo {
			continue
		}
		d.decodeGroupInit(g)
		for e, pos := range g.posBy {
			n := len(pos)
			k := max(1, min(par, (n+minPartRows-1)/minPartRows))
			for i := range k {
				items = append(items, decodeItem{g, e, pos[i*n/k : (i+1)*n/k]})
			}
		}
	}
	return items
}

// decodeGroupInit reconstructs a group's float codes and groups its stored
// positions by expert, restricted to the selected local row span.
func (d *decompressor) decodeGroupInit(g *groupDec) {
	g.rec = reconstructCodes(g.dims, d.meta.codeBits)
	g.posBy = expertPositionsRange(g.assign, g.perm, d.meta.numExperts, g.glo, g.ghi)
}

// decodeExpert runs stored positions pos of group g, all assigned to expert
// e, through the decoder, at the precision the archive header mandates
// (flagFloat32 → float32 inference), in st.
func (d *decompressor) decodeExpert(g *groupDec, e int, pos []int, st *inferState) error {
	var d32 *nn.Decoder32
	if d.decs32 != nil {
		d32 = d.decs32[e]
	}
	if n := min(decodeBatchRows, len(pos)); len(st.ranks) < n {
		st.ranks, st.classes = make([]int, n), make([]int, n)
	}
	var derr error
	expertBatches(st, d.decoders[e], d32, d.wantSpec, g.rec, pos, func(chunk []int, p *nn.Predictions) {
		if derr != nil {
			return
		}
		derr = d.applyChunk(g, d.decoders[e], chunk, p, st.ranks[:len(chunk)], st.classes[:len(chunk)])
	})
	return derr
}

// inferPool is the inference memory a reader keeps between requests, held by
// an Archive handle and by an ArchiveReader for their lifetimes so that a
// warm reader's decode allocates no inference scratch, and the memory a
// writer keeps between code widths and row groups, held by a Compress call
// and by an ArchiveWriter for its lifetime: a free list of inferStates, which
// serve any expert (an archive's experts share one architecture). A state is
// made only when the list is empty, so it never holds more states than the
// most inference workers that ever ran at once. It is not a sync.Pool, which
// every GC empties, and it is not keyed by projection: one state serves any
// (DESIGN.md §14).
type inferPool struct {
	mu   sync.Mutex
	free []*inferState
}

func (p *inferPool) get() *inferState {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return new(inferState)
	}
	st := p.free[n-1]
	p.free = p.free[:n-1]
	return st
}

func (p *inferPool) put(st *inferState) {
	p.mu.Lock()
	p.free = append(p.free, st)
	p.mu.Unlock()
}

// applyChunk merges one batch of predictions with a group's failure streams.
// Dictionaries, scalers, and quantizers come from the group plan. A
// categorical column's ranks are gathered into ranks, one per row of the
// chunk, and turned into classes in one classesAtRank call.
func (d *decompressor) applyChunk(g *groupDec, dec *nn.Decoder, chunk []int, p *nn.Predictions, ranks, classes []int) error {
	for si, spec := range d.meta.layout.specs {
		if !d.wantSpec[si] {
			continue
		}
		col := d.meta.layout.specCols[si]
		cp := &g.plan.Cols[col]
		fails := g.streams[col][0].ints // per-row failures; residual digits read their own below
		switch spec.Kind {
		case nn.OutNumeric:
			np := dec.NumPos(si)
			if cp.Kind == preprocess.KindNumContinuous {
				out := g.contOut[col]
				for i, s := range chunk {
					if fails[s] != 0 {
						out[s] = g.valAt[si][s]
					} else {
						out[s] = cp.Scaler.Unscale(p.Num.At(i, np))
					}
				}
				continue
			}
			lv := levels(cp)
			out := g.colCodes[col]
			for i, s := range chunk {
				code := nearestLevel(cp, p.Num.At(i, np), lv) + int(fails[s])
				if code < 0 || code >= lv {
					return fmt.Errorf("%w: column %d code %d outside [0,%d)", ErrCorrupt, col, code, lv)
				}
				out[s] = code
			}
		case nn.OutBinary:
			bp := dec.BinPos(si)
			out := g.colCodes[col]
			for i, s := range chunk {
				predBit := 0
				if p.Bin.At(i, bp) >= 0.5 {
					predBit = 1
				}
				f := fails[s]
				if f != 0 && f != 1 {
					return fmt.Errorf("%w: column %d binary failure %d", ErrCorrupt, col, f)
				}
				out[s] = predBit ^ int(f)
			}
		case nn.OutCategorical:
			j := dec.CatPos(si)
			out := g.colCodes[col]
			probs := p.Cat[j]
			if cp.Kind == preprocess.KindCatResidual {
				// One digit of the rank: patch this digit's failure rank
				// and accumulate its place value into the shared code.
				// Ranks are strict — digits have no escape, so anything
				// outside [0, Base) is corruption, and the recomposed rank
				// is bounds-checked against the dictionary on assembly.
				dg := d.meta.layout.specDigit[si]
				digits := g.streams[col][dg].ints
				mult := 1
				for k := 0; k < dg; k++ {
					mult *= cp.ModelCard
				}
				for i, s := range chunk {
					rank := int(digits[s])
					if rank < 0 || rank >= spec.Card {
						return fmt.Errorf("%w: column %d digit %d rank %d", ErrCorrupt, col, dg, rank)
					}
					ranks[i] = rank
				}
				classesAtRank(probs, ranks, classes)
				for i, s := range chunk {
					out[s] += classes[i] * mult
				}
				continue
			}
			for i, s := range chunk {
				rank := int(fails[s])
				switch {
				case rank == spec.Card: // escape: the class is the exception, below
					rank = 0
				case rank < 0 || rank > spec.Card:
					return fmt.Errorf("%w: column %d rank %d", ErrCorrupt, col, rank)
				}
				ranks[i] = rank
			}
			classesAtRank(probs, ranks, classes)
			for i, s := range chunk {
				if fails[s] == int64(spec.Card) {
					out[s] = int(g.excAt[si][s])
				} else {
					out[s] = classes[i]
				}
			}
		}
	}
	return nil
}

// assemble materializes the selected columns of every decoded group in
// original row order — one work item per group × column. dst names where
// item (d.groups[gi], d.selCols[ci]) writes: a categorical or a numeric
// slice of exactly the group's selected row count that no other item
// touches, so the outcome is independent of scheduling.
func (d *decompressor) assemble(dst func(gi, ci int) ([]string, []float64)) error {
	type work struct {
		g   *groupDec
		col int
		str []string
		num []float64
	}
	var items []work
	for gi, g := range d.groups {
		if !g.active || g.ghi <= g.glo {
			continue
		}
		for ci, col := range d.selCols {
			str, num := dst(gi, ci)
			items = append(items, work{g, col, str, num})
		}
	}
	return d.run.ForEach(len(items), func(k int) error {
		it := items[k]
		return d.assembleColumn(it.g, it.col, it.str, it.num)
	})
}

// assembleTable assembles into one (possibly projected) table: the surviving
// groups' selected rows concatenate in archive order, each group writing the
// span of every output column that starts at its outOff.
func (d *decompressor) assembleTable() (*dataset.Table, error) {
	schema := d.outSchema()
	out := dataset.NewTable(schema, d.nOut)
	for k := range schema.Columns {
		if out.Str[k] != nil {
			out.Str[k] = out.Str[k][:d.nOut]
		} else {
			out.Num[k] = out.Num[k][:d.nOut]
		}
	}
	out.SetNumRows(d.nOut)
	err := d.assemble(func(gi, ci int) ([]string, []float64) {
		g := d.groups[gi]
		lo, hi := g.outOff, g.outOff+g.ghi-g.glo
		if out.Str[ci] != nil {
			return out.Str[ci][lo:hi], nil
		}
		return nil, out.Num[ci][lo:hi]
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// outSchema is the schema of the tables the request assembles: the archive's,
// or under a projection its selected columns in archive order.
func (d *decompressor) outSchema() *dataset.Schema {
	schema := d.meta.plan.Schema
	if d.opts.Columns == nil {
		return schema
	}
	cols := make([]dataset.Column, len(d.selCols))
	for k, col := range d.selCols {
		cols[k] = schema.Columns[col]
	}
	return dataset.NewSchema(cols...)
}

// assembleColumn materializes one group × column into dstStr or dstNum
// (whichever matches the column's type), each exactly the group's selected
// row count long. Model and trivial columns decode their codes, in original
// row order (gathered through unperm unless the group stores rows in that
// order), through the group plan straight into the destination.
func (d *decompressor) assembleColumn(g *groupDec, col int, dstStr []string, dstNum []float64) error {
	m := g.ghi - g.glo
	cp := &g.plan.Cols[col]
	switch {
	case d.meta.layout.specOfCol[col] >= 0 && cp.Kind == preprocess.KindNumContinuous:
		src := g.contOut[col]
		for i := range dstNum {
			dstNum[i] = src[g.unperm[g.glo+i]]
		}
	case d.meta.layout.specOfCol[col] >= 0:
		src := g.colCodes[col]
		codes := src[g.glo:g.ghi]
		if !g.inOrder {
			codes = make([]int, m)
			for i := range codes {
				codes[i] = src[g.unperm[g.glo+i]]
			}
		}
		return decodeInto(g.plan, col, codes, dstStr, dstNum)
	case cp.Kind == preprocess.KindFallbackCat:
		src := g.streams[col][0].strs
		for i := range dstStr {
			dstStr[i] = src[g.unperm[g.glo+i]]
		}
	case cp.Kind == preprocess.KindFallbackNum:
		src := g.streams[col][0].floats
		for i := range dstNum {
			dstNum[i] = src[g.unperm[g.glo+i]]
		}
	default: // trivial
		codes := make([]int, m)
		src := g.streams[col][0].ints
		for i := range codes {
			v := src[g.unperm[g.glo+i]]
			if v < 0 || v > math.MaxInt32 {
				return fmt.Errorf("%w: trivial column %d code %d", ErrCorrupt, col, v)
			}
			codes[i] = int(v)
		}
		return decodeInto(g.plan, col, codes, dstStr, dstNum)
	}
	return nil
}

// decodeInto wraps Plan.DecodeInto with corruption classification.
func decodeInto(plan *preprocess.Plan, col int, codes []int, str []string, num []float64) error {
	if err := plan.DecodeInto(col, codes, str, num); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return nil
}

// validatePerm checks perm is a permutation of [0, len).
func validatePerm(perm []int) error {
	seen := make([]bool, len(perm))
	for _, p := range perm {
		if p < 0 || p >= len(perm) || seen[p] {
			return fmt.Errorf("%w: invalid row permutation", ErrCorrupt)
		}
		seen[p] = true
	}
	return nil
}
