package core

import (
	"bytes"
	"encoding/binary"

	"deepsqueeze/internal/codec"
	"deepsqueeze/internal/dataset"
	"deepsqueeze/internal/nn"
	"deepsqueeze/internal/pipeline"
)

// archiveState is a compression with every decision made and nothing framed
// yet: the fitted model data, the trained experts, the chosen code width and
// stored order, and the streams they produce. assembleArchive frames one into
// an archive; the streaming writer frames its first group from one and keeps
// the model, the decisions and the inference memory for the groups that
// follow.
type archiveState struct {
	md       *modelData
	autoenc  []*nn.Autoencoder // nil when the table has no model
	decoders []*nn.Decoder
	infer    *inferPool // the writer's inference memory, for every width and group
	codeBits int
	codeSize int
	rows     streamSet // the chosen width's materialization, by original row
	packs    *packings // decide's frames of the chosen stored order; buildState reuses, then drops them
	perm     []int     // stored position → original row
	assign   []int     // original row → expert
	grouped  bool
	experts  int
	spans    []rowSpan // row-group partition of [0, rows)
}

// segConfig is the per-archive context a segment writer needs.
type segConfig struct {
	codeSize  int // code dimensions per row; 0 without a model
	experts   int
	grouped   bool // grouped mapping form (vs per-tuple labels)
	keepOrder bool // original order recoverable (flagRowOrder)
	zoneMaps  bool // groups carry zone maps (flagZoneMaps)
}

// segmentData is everything one row-group segment serializes: its rows in
// stored order and the materialization they are gathered from. origBase is
// subtracted from perm values to form group-local indexes (span.start when
// the rows are the whole table's, 0 when they are group-local as in the
// streaming writer's later groups).
type segmentData struct {
	span      rowSpan
	origBase  int
	planChunk []byte // group plan override payload; nil = header plan applies
	perm      []int
	rows      streamSet
	packs     *packings
}

// buildMappingChunk serializes one group's expert mapping in the v1 chunk
// shape: the grouped form stores per-expert counts (plus packed group-local
// original indexes when row order is kept); the labels form stores one
// expert label per tuple. perm is the group's stored-order slice; origBase
// is subtracted to make indexes group-local.
func buildMappingChunk(assign, perm []int, origBase, experts int, grouped, keepOrder bool) []byte {
	if !grouped {
		labels := make([]int64, len(perm))
		for i, orig := range perm {
			labels[i] = int64(assign[orig])
		}
		return codec.CompressInts(labels, codec.Auto)
	}
	byExpert := make([][]int64, experts)
	for _, orig := range perm {
		e := assign[orig]
		byExpert[e] = append(byExpert[e], int64(orig-origBase))
	}
	var mb []byte
	for _, idx := range byExpert {
		mb = binary.AppendUvarint(mb, uint64(len(idx)))
		if keepOrder {
			packed := codec.CompressInts(idx, codec.Auto)
			mb = binary.AppendUvarint(mb, uint64(len(packed)))
			mb = append(mb, packed...)
		}
	}
	return mb
}

// buildSegment serializes one row group into a CRC-framed segment body:
// a segment header chunk (row span + plan-override marker), the optional
// group plan, the group's code dimensions, expert mapping, and per-column
// failure chunks (same per-column chunk rules as format v1), each gathered
// in the group's stored order. t, md, assign and g.rows are addressed
// through g.perm, so they may be the global table or a group-local one. The
// codes/mapping/failures section sizes ride along for the footer index.
func buildSegment(t *dataset.Table, md *modelData, assign []int, cfg segConfig, g segmentData) builtSegment {
	w := &sectionWriter{}
	var sh []byte
	sh = binary.AppendUvarint(sh, uint64(g.span.start))
	sh = binary.AppendUvarint(sh, uint64(g.span.count))
	if g.planChunk != nil {
		sh = append(sh, 1)
	} else {
		sh = append(sh, 0)
	}
	w.chunk(sh)
	if g.planChunk != nil {
		w.chunk(g.planChunk)
	}
	seg := builtSegment{count: g.span.count}
	for d := range cfg.codeSize {
		key := streamKey{codeDim, 0, d}
		seg.codes += w.chunk(g.packs.frame(key, gather(key, g.perm, g.rows, t, md)))
	}
	if cfg.experts > 1 {
		seg.mapping += w.chunk(buildMappingChunk(assign, g.perm, g.origBase, cfg.experts, cfg.grouped, cfg.keepOrder))
	}
	for col := range md.plan.Cols {
		for _, e := range colStreams(md.plan, md.layout, col) {
			key := streamKey{e.kind, col, e.digit}
			seg.failures += w.chunk(g.packs.frame(key, gather(key, g.perm, g.rows, t, md)))
		}
	}
	seg.framed = w.finish()
	return seg
}

// flags derives the archive's flag byte from the decisions and the options.
func (st *archiveState) flags(opts Options) byte {
	flags := byte(0)
	if st.grouped {
		flags |= flagGrouped
	}
	if len(st.decoders) > 0 {
		flags |= flagHasModel
	}
	if opts.KeepRowOrder || st.experts <= 1 || !st.grouped {
		flags |= flagRowOrder
	}
	if !opts.NoZoneMaps {
		flags |= flagZoneMaps
	}
	if planHasResidual(st.md.plan) {
		// Advisory: residual columns also mark the plan itself (a new
		// ColKind old readers reject), but the header flag lets Inspect and
		// operators see the layout without parsing the plan.
		flags |= flagResidual
	}
	return flags
}

// appendDecoderChunkPayload serializes the decoder section payload: the
// DEFLATE-framed, length-prefixed decoders.
func appendDecoderChunkPayload(st *archiveState) []byte {
	var db []byte
	for _, d := range st.decoders {
		body := d.AppendBinary(nil)
		db = binary.AppendUvarint(db, uint64(len(body)))
		db = append(db, body...)
	}
	return compressDecoderSection(db)
}

// builtArchive is a decided state serialized and not yet framed: the
// prefix's flag byte, header and decoder payloads, the segment configuration
// the flags imply, and one built segment per span.
type builtArchive struct {
	flags            byte
	header, decoders []byte
	cfg              segConfig
	segs             []builtSegment
}

// buildState serializes a decided state: the prefix's payloads, then one
// segment per span, each gathering the span's stored positions from st.rows.
// Segments (and their zone maps) build concurrently over the run's pool into
// index-addressed slots, so the bytes are identical at every parallelism
// level. A group whose streams are the ones the decisions packed — the whole
// table, when it is one group — writes those frames; st.packs is dropped once
// the segments are built. It writes nothing: frame does.
func buildState(run *pipeline.Run, t *dataset.Table, opts Options, st *archiveState) (*builtArchive, error) {
	md := st.md
	b := &builtArchive{flags: st.flags(opts)}
	if b.flags&flagHasModel != 0 {
		b.decoders = appendDecoderChunkPayload(st)
	}
	b.header = appendHeaderPayload(nil, md.plan, st.codeSize, st.codeBits, st.experts, opts.rowGroupSize())
	b.cfg = segConfig{
		codeSize:  st.codeSize,
		experts:   st.experts,
		grouped:   st.grouped,
		keepOrder: b.flags&flagRowOrder != 0,
		zoneMaps:  b.flags&flagZoneMaps != 0,
	}
	b.segs = make([]builtSegment, len(st.spans))
	err := run.ForEach(len(st.spans), func(i int) error {
		sp := st.spans[i]
		g := segmentData{span: sp, origBase: sp.start, perm: st.perm[sp.start : sp.start+sp.count], rows: st.rows, packs: st.packs}
		b.segs[i] = buildSegment(t, md, st.assign, b.cfg, g)
		if b.cfg.zoneMaps {
			b.segs[i].zones = computeGroupZones(t, g.perm, md.plan, md.plan)
		}
		return nil
	})
	st.packs = nil
	if err != nil {
		return nil, err
	}
	return b, nil
}

// frame writes the prefix and the segments, in span order, through f and
// returns the decoder chunk's framed size.
func (b *builtArchive) frame(f *framer) (int64, error) {
	decoderBytes, err := f.prefix(b.flags, b.header, b.decoders)
	if err != nil {
		return 0, err
	}
	for _, seg := range b.segs {
		if err := f.segment(seg); err != nil {
			return 0, err
		}
	}
	return decoderBytes, nil
}

// assembleArchive frames a decided state into a version-2 archive as the
// run's "assemble" stage, filling res.Archive and the per-section size
// breakdown.
func assembleArchive(run *pipeline.Run, t *dataset.Table, opts Options, st *archiveState, res *Result) error {
	return run.StageBytes("assemble", func() (int64, error) {
		var buf bytes.Buffer
		f := newFramer(&buf)
		b, err := buildState(run, t, opts, st)
		if err != nil {
			return 0, err
		}
		decoderBytes, err := b.frame(f)
		if err != nil {
			return 0, err
		}
		if err := f.finish(); err != nil {
			return 0, err
		}
		bd := Breakdown{Decoder: decoderBytes, Total: f.off}
		for _, g := range f.metas {
			bd.Codes += g.codes
			bd.Mapping += g.mapping
			bd.Failures += g.failures
		}
		// Everything that is not decoders, codes, failures, or mapping — the
		// envelope, plan, segment/footer framing, and checksums — counts as
		// header, keeping the Fig. 6 components summing exactly to Total.
		bd.Header = bd.Total - bd.Decoder - bd.Codes - bd.Failures - bd.Mapping
		res.Archive, res.Breakdown = buf.Bytes(), bd
		return bd.Total, nil
	})
}
