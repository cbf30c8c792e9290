package core

import (
	"bytes"
	"encoding/binary"

	"deepsqueeze/internal/codec"
	"deepsqueeze/internal/colfile"
	"deepsqueeze/internal/dataset"
	"deepsqueeze/internal/nn"
	"deepsqueeze/internal/pipeline"
	"deepsqueeze/internal/preprocess"
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
	decs32   []*nn.Decoder32 // float32 views when the archive carries flagFloat32
	codeDims [][]int64       // per dimension, stored order
	codeBits int
	codeSize int
	fs       *failureSet
	packs    *packings // decide's frames of codeDims and fs; frameState reuses, then drops them
	perm     []int     // stored position → original row
	assign   []int     // original row → expert
	grouped  bool
	experts  int
	spans    []rowSpan // row-group partition of [0, rows)
	// ext, when non-nil, marks a streaming batch archive: the decoders are
	// not embedded, only the SHA-256 of the model archive's decoder section.
	ext *externalModelRef
}

// externalModelRef identifies the model archive a batch archive depends on.
type externalModelRef struct {
	Hash [32]byte
}

// segConfig is the per-archive context a segment writer needs.
type segConfig struct {
	hasModel  bool
	experts   int
	grouped   bool       // grouped mapping form (vs per-tuple labels)
	keepOrder bool       // original order recoverable (flagRowOrder)
	zoneMaps  bool       // groups carry zone maps (flagZoneMaps)
	mask      codec.Mask // codecs the int-stream best-of selector may try
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
	fs        *failureSet
	perm      []int
	packs     *packings
}

// sliceGroups cuts the global stored-order streams at span boundaries. The
// sparse exception / continuous-correction queues are split by one serial
// prefix pass over the dense streams (an escape consumes one exception, a
// set mask bit consumes one correction).
func sliceGroups(md *modelData, fs *failureSet, dims [][]int64, perm []int, spans []rowSpan) []segmentData {
	excOff := make(map[int]int)
	valOff := make(map[int]int)
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
		g.fs = newFailureSet()
		for col, digits := range fs.resInts {
			segs := make([][]int64, len(digits))
			for d, stream := range digits {
				segs[d] = stream[lo:hi]
			}
			g.fs.resInts[col] = segs
		}
		for col, ints := range fs.ints {
			seg := ints[lo:hi]
			g.fs.ints[col] = seg
			if _, ok := fs.exceptions[col]; !ok {
				continue
			}
			card := int64(md.specs[md.specOfCol[col]].Card)
			cnt := 0
			for _, v := range seg {
				if v == card {
					cnt++
				}
			}
			off := excOff[col]
			g.fs.exceptions[col] = fs.exceptions[col][off : off+cnt]
			excOff[col] = off + cnt
		}
		for col, mask := range fs.contMask {
			seg := mask[lo:hi]
			g.fs.contMask[col] = seg
			cnt := 0
			for _, m := range seg {
				if m != 0 {
					cnt++
				}
			}
			off := valOff[col]
			g.fs.contVals[col] = fs.contVals[col][off : off+cnt]
			valOff[col] = off + cnt
		}
	}
	return groups
}

// buildMappingChunk serializes one group's expert mapping in the v1 chunk
// shape: the grouped form stores per-expert counts (plus packed group-local
// original indexes when row order is kept); the labels form stores one
// expert label per tuple. perm is the group's stored-order slice; origBase
// is subtracted to make indexes group-local.
func buildMappingChunk(assign, perm []int, origBase, experts int, grouped, keepOrder bool, mask codec.Mask) []byte {
	if !grouped {
		labels := make([]int64, len(perm))
		for i, orig := range perm {
			labels[i] = int64(assign[orig])
		}
		return colfile.PackIntsMask(labels, mask)
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
			packed := colfile.PackIntsMask(idx, mask)
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
			seg.codes += w.chunk(g.packs.frame(streamKey{codeDim, 0, d}, packedStream{ints: dim}, cfg.mask))
		}
	}
	if cfg.experts > 1 {
		seg.mapping += w.chunk(buildMappingChunk(assign, g.perm, g.origBase, cfg.experts, cfg.grouped, cfg.keepOrder, cfg.mask))
	}
	for col := range md.plan.Cols {
		cp := &md.plan.Cols[col]
		switch {
		case md.specOfCol[col] >= 0 && cp.Kind == preprocess.KindNumContinuous:
			seg.failures += w.chunk(g.packs.frame(streamKey{failContMask, col, 0}, packedStream{ints: g.fs.contMask[col]}, cfg.mask))
			seg.failures += w.chunk(g.packs.frame(streamKey{failContVals, col, 0}, packedStream{floats: g.fs.contVals[col]}, cfg.mask))
		case cp.Kind == preprocess.KindCatResidual:
			// One failure-rank chunk per digit, no exception chunks:
			// digits never escape.
			for d, stream := range g.fs.resInts[col] {
				seg.failures += w.chunk(g.packs.frame(streamKey{failDigit, col, d}, packedStream{ints: stream}, cfg.mask))
			}
		case md.specOfCol[col] >= 0:
			seg.failures += w.chunk(g.packs.frame(streamKey{failInts, col, 0}, packedStream{ints: g.fs.ints[col]}, cfg.mask))
			if md.specs[md.specOfCol[col]].Kind == nn.OutCategorical {
				seg.failures += w.chunk(g.packs.frame(streamKey{failExceptions, col, 0}, packedStream{ints: g.fs.exceptions[col]}, cfg.mask))
			}
		case cp.Kind == preprocess.KindFallbackCat:
			vals := make([]string, g.span.count)
			for s, orig := range g.perm {
				vals[s] = t.Str[col][orig]
			}
			seg.failures += w.chunk(colfile.PackStrings(vals))
		case cp.Kind == preprocess.KindFallbackNum:
			vals := make([]float64, g.span.count)
			for s, orig := range g.perm {
				vals[s] = t.Num[col][orig]
			}
			seg.failures += w.chunk(colfile.PackFloats(vals))
		default: // trivial: store the (tiny) code stream directly
			cc := md.codes[col]
			vals := make([]int64, g.span.count)
			for s, orig := range g.perm {
				vals[s] = int64(cc[orig])
			}
			seg.failures += w.chunk(colfile.PackIntsMask(vals, cfg.mask))
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
	if st.ext != nil {
		flags |= flagExternalModel
	}
	if !opts.NoZoneMaps {
		flags |= flagZoneMaps
	}
	if st.decs32 != nil {
		// Decode precision is a per-archive contract: the flag tells every
		// reader that the stored corrections assume float32 inference.
		flags |= flagFloat32
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
// external-model hash for streaming batch archives, the DEFLATE-framed
// length-prefixed decoders otherwise.
func appendDecoderChunkPayload(st *archiveState) ([]byte, error) {
	if st.ext != nil {
		return st.ext.Hash[:], nil
	}
	var db []byte
	for _, d := range st.decoders {
		body := d.AppendBinary(nil)
		db = binary.AppendUvarint(db, uint64(len(body)))
		db = append(db, body...)
	}
	return compressDecoderSection(db), nil
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
		var err error
		if decoders, err = appendDecoderChunkPayload(st); err != nil {
			return segConfig{}, 0, err
		}
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
		mask:      opts.codecMask(),
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
