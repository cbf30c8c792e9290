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
// the model and the decisions for the groups that follow.
type archiveState struct {
	md       *modelData
	autoenc  []*nn.Autoencoder // nil when the table has no model
	decoders []*nn.Decoder
	codeDims [][]int64 // per dimension, stored order
	codeBits int
	codeSize int
	fs       failureSet
	packs    *packings // decide's frames of codeDims and fs; frameState reuses, then drops them
	perm     []int     // stored position → original row
	assign   []int     // original row → expert
	grouped  bool
	experts  int
	spans    []rowSpan // row-group partition of [0, rows)
}

// segConfig is the per-archive context a segment writer needs.
type segConfig struct {
	hasModel  bool
	experts   int
	grouped   bool // grouped mapping form (vs per-tuple labels)
	keepOrder bool // original order recoverable (flagRowOrder)
	zoneMaps  bool // groups carry zone maps (flagZoneMaps)
}

// segmentData is everything one row-group segment serializes, already cut to
// the group's rows: the dense streams in fs and perm are the group's
// stored-order slice, the sparse queues hold only the group's
// escapes/corrections. origBase is subtracted from perm values to form
// group-local indexes (span.start when slicing a global materialization, 0
// when the streams are group-local as in the streaming writer).
type segmentData struct {
	span      rowSpan
	origBase  int
	planChunk []byte // group plan override payload; nil = header plan applies
	dims      [][]int64
	fs        failureSet
	perm      []int
	packs     *packings
}

// stream returns what chunk key stores for g, in g's stored order: a model
// column's stream from g.fs, a fallback column's values from t, a trivial
// column's codes from md.
func (g *segmentData) stream(key streamKey, t *dataset.Table, md *modelData) (s stream) {
	switch key.kind {
	case fallbackStrs:
		s.strs = make([]string, len(g.perm))
		for i, orig := range g.perm {
			s.strs[i] = t.Str[key.col][orig]
		}
	case fallbackNums:
		s.floats = make([]float64, len(g.perm))
		for i, orig := range g.perm {
			s.floats[i] = t.Num[key.col][orig]
		}
	case trivialCodes:
		s.ints = make([]int64, len(g.perm))
		for i, orig := range g.perm {
			s.ints[i] = int64(md.codes[key.col][orig])
		}
	default:
		return g.fs[key]
	}
	return s
}

// sliceGroups cuts the global stored-order streams at span boundaries. A
// sparse queue is split by one serial prefix pass over the dense stream whose
// escapes consume it: an escaped rank consumes one exception, a set mask flag
// one correction.
func sliceGroups(md *modelData, fs failureSet, dims [][]int64, perm []int, spans []rowSpan) []segmentData {
	taken := make(map[streamKey]int) // queue values handed to earlier groups
	groups := make([]segmentData, len(spans))
	for gi, sp := range spans {
		lo, hi := sp.start, sp.start+sp.count
		g := &groups[gi]
		g.span, g.origBase = sp, sp.start
		g.perm = perm[lo:hi]
		g.dims = make([][]int64, len(dims))
		for d, col := range dims {
			g.dims[d] = col[lo:hi]
		}
		g.fs = make(failureSet, len(fs))
		for key, s := range fs {
			if kindSpecs[key.kind].dense {
				g.fs[key] = s.slice(key.kind, lo, hi)
				continue
			}
			first, escape := fs[streamKey{failContMask, key.col, 0}], int64(1)
			if key.kind == failExceptions {
				first, escape = fs[streamKey{failInts, key.col, 0}], int64(md.specs[md.specOfCol[key.col]].Card)
			}
			n := 0
			for _, v := range first.ints[lo:hi] {
				if v == escape {
					n++
				}
			}
			g.fs[key] = s.slice(key.kind, taken[key], taken[key]+n)
			taken[key] += n
		}
	}
	return groups
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
// failure chunks (same per-column chunk rules as format v1). t, md, and
// assign are addressed through g.perm, so they may be the global table or a
// group-local one. The codes/mapping/failures section sizes ride along for
// the footer index.
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
	if cfg.hasModel {
		for d, dim := range g.dims {
			seg.codes += w.chunk(g.packs.frame(streamKey{codeDim, 0, d}, stream{ints: dim}))
		}
	}
	if cfg.experts > 1 {
		seg.mapping += w.chunk(buildMappingChunk(assign, g.perm, g.origBase, cfg.experts, cfg.grouped, cfg.keepOrder))
	}
	for col := range md.plan.Cols {
		for _, e := range colStreams(md.plan, md.layout, col) {
			key := streamKey{e.kind, col, e.digit}
			seg.failures += w.chunk(g.packs.frame(key, g.stream(key, t, md)))
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

// frameState writes a decided state through f: the prefix, then one segment
// per span. Segments (and their zone maps) build concurrently over the run's
// pool into index-addressed slots and are framed serially, so the bytes are
// identical at every parallelism level. A group whose streams are the ones
// the decisions packed — the whole table, when it is one group — writes
// those frames; st.packs is dropped once the segments are built. Returns the
// segment configuration the state's flags imply and the decoder chunk's
// framed size.
func frameState(run *pipeline.Run, f *framer, t *dataset.Table, opts Options, st *archiveState) (segConfig, int64, error) {
	md := st.md
	flags := st.flags(opts)
	var decoders []byte
	if flags&flagHasModel != 0 {
		decoders = appendDecoderChunkPayload(st)
	}
	header := appendHeaderPayload(nil, md.plan, st.codeSize, st.codeBits, st.experts, opts.rowGroupSize())
	decoderBytes, err := f.prefix(flags, header, decoders)
	if err != nil {
		return segConfig{}, 0, err
	}
	groups := sliceGroups(md, st.fs, st.codeDims, st.perm, st.spans)
	cfg := segConfig{
		hasModel:  flags&flagHasModel != 0,
		experts:   st.experts,
		grouped:   st.grouped,
		keepOrder: flags&flagRowOrder != 0,
		zoneMaps:  flags&flagZoneMaps != 0,
	}
	segs := make([]builtSegment, len(groups))
	err = run.ForEach(len(groups), func(g int) error {
		groups[g].packs = st.packs
		segs[g] = buildSegment(t, md, st.assign, cfg, groups[g])
		if cfg.zoneMaps {
			segs[g].zones = computeGroupZones(t, groups[g].perm, md.plan, md.plan)
		}
		return nil
	})
	st.packs = nil
	if err != nil {
		return segConfig{}, 0, err
	}
	for _, seg := range segs {
		if err := f.segment(seg); err != nil {
			return segConfig{}, 0, err
		}
	}
	return cfg, decoderBytes, nil
}

// assembleArchive frames a decided state into a version-2 archive as the
// run's "assemble" stage, filling res.Archive and the per-section size
// breakdown.
func assembleArchive(run *pipeline.Run, t *dataset.Table, opts Options, st *archiveState, res *Result) error {
	return run.StageBytes("assemble", func() (int64, error) {
		var buf bytes.Buffer
		f := newFramer(&buf)
		_, decoderBytes, err := frameState(run, f, t, opts, st)
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
