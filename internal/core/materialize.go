package core

import (
	"fmt"
	"math"
	"slices"

	"deepsqueeze/internal/codec"
	"deepsqueeze/internal/colfile"
	"deepsqueeze/internal/dataset"
	"deepsqueeze/internal/mat"
	"deepsqueeze/internal/nn"
	"deepsqueeze/internal/pipeline"
	"deepsqueeze/internal/preprocess"
)

// quantizeCodes rounds each code dimension to bits of precision, returning
// the integer codes (per dimension, in row order of c) and the reconstructed
// float codes the decoder will actually see. Codes live in [0,1] (sigmoid
// code layer), so the grid is uniform with 2^bits−1 steps.
func quantizeCodes(c *mat.Matrix, bits int) ([][]int64, *mat.Matrix) {
	scale := float64(uint64(1)<<uint(bits) - 1)
	dims := make([][]int64, c.Cols)
	for d := range dims {
		dims[d] = make([]int64, c.Rows)
	}
	rec := mat.New(c.Rows, c.Cols)
	for r := 0; r < c.Rows; r++ {
		row := c.Row(r)
		rrow := rec.Row(r)
		for d, v := range row {
			q := math.Round(v * scale)
			if q < 0 {
				q = 0
			}
			if q > scale {
				q = scale
			}
			dims[d][r] = int64(q)
			rrow[d] = q / scale
		}
	}
	return dims, rec
}

// reconstructCodes maps integer codes back to [0,1] floats — the
// decompression-side twin of quantizeCodes.
func reconstructCodes(dims [][]int64, bits int) *mat.Matrix {
	scale := float64(uint64(1)<<uint(bits) - 1)
	rows := 0
	if len(dims) > 0 {
		rows = len(dims[0])
	}
	rec := mat.New(rows, len(dims))
	for d, col := range dims {
		for r, v := range col {
			rec.Set(r, d, float64(v)/scale)
		}
	}
	return rec
}

// rankOf returns the rank of class `actual` when classes are ordered by
// descending probability with ascending-index tie-break (paper §6.3.1).
func rankOf(probs []float64, actual int) int {
	pa := probs[actual]
	rank := 0
	for j, p := range probs {
		if p > pa || (p == pa && j < actual) {
			rank++
		}
	}
	return rank
}

// codeAtRank returns the class at the given rank, in [0, len(probs)), under
// the same ordering: the reference mat.ClassAtRank's lanes keep. Ranks
// concentrate near 0, so it walks the order from the first strict maximum,
// one successor per pass, rather than sorting. Probabilities with a NaN have
// no such order; it then stops where no class follows and returns a class in
// range all the same.
func codeAtRank(probs []float64, rank int) int {
	best := 0
	for j, p := range probs {
		if p > probs[best] {
			best = j
		}
	}
	for ; rank > 0; rank-- {
		// best's successor: the first maximum of the classes ordered after it.
		prev, pp := best, probs[best]
		for j, p := range probs {
			if (p < pp || (p == pp && j > prev)) && (best == prev || p > probs[best]) {
				best = j
			}
		}
		if best == prev {
			break
		}
	}
	return best
}

// classesAtRank sets classes[i] = codeAtRank(probs.Row(i), ranks[i]) for
// every row of probs: four rows at a time in mat.ClassAtRank's lanes where it
// takes them, and by codeAtRank where it leaves a block or the last rows.
func classesAtRank(probs *mat.Matrix, ranks, classes []int) {
	for i := 0; i < probs.Rows; {
		rest := probs.SliceRows(i, probs.Rows)
		i += mat.ClassAtRank(&rest, ranks[i:], classes[i:])
		for end := min(i+4, probs.Rows); i < end; i++ {
			classes[i] = codeAtRank(probs.Row(i), ranks[i])
		}
	}
}

// decodeBatchRows is the chunk size per decoder matmul.
const decodeBatchRows = 2048

// expertRows groups the rows by assigned expert in one pass, ascending
// within each expert.
func expertRows(assign []int, numExperts int) [][]int {
	rows := make([][]int, numExperts)
	for r, e := range assign {
		rows[e] = append(rows[e], r)
	}
	return rows
}

// expertPositionsRange groups a group's stored positions by assigned expert
// in one pass, keeping those whose original row falls in [lo, hi) — how a
// row-ranged decompression avoids running decoder inference for rows it will
// not materialize. perm maps stored position → original row; assign is
// indexed by original row. Positions come out ascending within each expert.
func expertPositionsRange(assign []int, perm []int, numExperts, lo, hi int) [][]int {
	posBy := make([][]int, numExperts)
	for s, orig := range perm {
		if orig < lo || orig >= hi {
			continue
		}
		posBy[assign[orig]] = append(posBy[assign[orig]], s)
	}
	return posBy
}

// inferState is the memory one worker runs an expert's inference in: the
// decoder's scratch, the batch of codes expertBatches gathers, and one
// categorical column's ranks and classes over a chunk. Nothing in it outlives
// a call's use of it, so a state serves any decoder, width and projection,
// one worker at a time.
type inferState struct {
	scratch        nn.Scratch
	batch          mat.Matrix
	ranks, classes []int
}

// expertBatches feeds one expert's positions — rows of recCodes — through
// its decoder — dec32, the float32 view, when the archive plan carries
// flagFloat32 — restricted to want, in decodeBatchRows-sized chunks gathered
// into st. Compression passes each expert's original rows in ascending order
// and decompression its stored positions in ascending order, which are the
// same rows in the same order in every stored order a writer emits; the
// chunking depends only on the position list, so predictions are independent
// of parallelism at either precision.
func expertBatches(st *inferState, dec *nn.Decoder, dec32 *nn.Decoder32, want []bool, recCodes *mat.Matrix, positions []int,
	fn func(chunk []int, p *nn.Predictions)) {
	if n := min(decodeBatchRows, len(positions)) * recCodes.Cols; cap(st.batch.Data) < n {
		st.batch.Data = make([]float64, n)
	}
	for lo := 0; lo < len(positions); lo += decodeBatchRows {
		chunk := positions[lo:min(lo+decodeBatchRows, len(positions))]
		codes := &st.batch
		codes.Rows, codes.Cols, codes.Data = len(chunk), recCodes.Cols, codes.Data[:len(chunk)*recCodes.Cols]
		for i, s := range chunk {
			copy(codes.Row(i), recCodes.Row(s))
		}
		if dec32 != nil {
			fn(chunk, dec32.PredictInto(&st.scratch, codes, want))
		} else {
			fn(chunk, dec.PredictInto(&st.scratch, codes, want))
		}
	}
}

// streamSet maps chunks to their streams. A code width's materialization is
// one, indexed by original row: its code dimensions and the model columns'
// dense streams, from which gather reads any stored order. The set one stored
// order is priced by is another: those streams gathered into that order, and
// each sparse queue that holds something.
type streamSet map[streamKey]stream

// computeFailures materializes one code width: codes, one row per original
// row, are quantized to bits and every row is run back through its expert's
// decoder. The result holds, by original row, the code dimensions and the
// model columns' dense streams — per-row failures (an escaped categorical
// code stores the column's cardinality) and misprediction flags — and the
// truncation search, the mapping choice, assembly and the streaming writer's
// later groups all gather their stored orders from it. Each expert visits its
// rows in ascending order, in decodeBatchRows chunks — the batches a reader
// of any stored order runs, since a grouped order keeps each expert's rows
// ascending — concurrently over the run's pool, writing disjoint rows of a
// set that is fully keyed before the fan-out, in inference memory drawn from
// st.infer; the result is identical at every parallelism level. Inference is
// float64: no writer emits the float32 plan (DESIGN.md §15).
func computeFailures(run *pipeline.Run, st *archiveState, codes *mat.Matrix, bits int) (streamSet, error) {
	md := st.md
	dims, recCodes := quantizeCodes(codes, bits)
	fs := make(streamSet)
	for d, dim := range dims {
		fs[streamKey{codeDim, 0, d}] = stream{ints: dim}
	}
	for col := range md.plan.Cols {
		if md.specOfCol[col] < 0 {
			continue
		}
		for _, e := range colStreams(md.plan, md.layout, col) {
			if kindSpecs[e.kind].dense { // every dense model stream is an int stream
				fs[streamKey{e.kind, col, e.digit}] = stream{ints: make([]int64, md.rows)}
			}
		}
	}
	rowsBy := expertRows(st.assign, len(st.decoders))
	err := run.ForEach(len(st.decoders), func(e int) error {
		is := st.infer.get()
		defer st.infer.put(is)
		dec := st.decoders[e]
		expertBatches(is, dec, nil, nil, recCodes, rowsBy[e], func(chunk []int, p *nn.Predictions) {
			for si, spec := range md.specs {
				col := md.specCols[si]
				cp := &md.plan.Cols[col]
				out := fs[streamKey{failInts, col, 0}].ints
				switch spec.Kind {
				case nn.OutNumeric:
					np := dec.NumPos(si)
					if cp.Kind == preprocess.KindNumContinuous {
						vals := md.contVals[col]
						mask := fs[streamKey{failContMask, col, 0}].ints
						for i, r := range chunk {
							if !(math.Abs(p.Num.At(i, np)-vals[r]) <= cp.Threshold) {
								mask[r] = 1
							}
						}
						continue
					}
					lv := levels(cp)
					cc := md.codes[col]
					for i, r := range chunk {
						out[r] = int64(cc[r] - nearestLevel(cp, p.Num.At(i, np), lv))
					}
				case nn.OutBinary:
					bp := dec.BinPos(si)
					cc := md.codes[col]
					for i, r := range chunk {
						predBit := 0
						if p.Bin.At(i, bp) >= 0.5 {
							predBit = 1
						}
						out[r] = int64(predBit ^ cc[r])
					}
				case nn.OutCategorical:
					j := dec.CatPos(si)
					cc := md.codes[col]
					probs := p.Cat[j]
					if cp.Kind == preprocess.KindCatResidual {
						// One digit of the rank: always in-alphabet, so
						// the failure is a plain rank with no escape.
						l := cp.ResLayout()
						d := md.specDigit[si]
						out := fs[streamKey{failDigit, col, d}].ints
						for i, r := range chunk {
							out[r] = int64(rankOf(probs.Row(i), l.Digit(cc[r], d)))
						}
						continue
					}
					for i, r := range chunk {
						if actual := cc[r]; actual >= spec.Card {
							out[r] = int64(spec.Card) // escape
						} else {
							out[r] = int64(rankOf(probs.Row(i), actual))
						}
					}
				}
			}
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return fs, nil
}

// gather returns what chunk key stores for the rows of perm, in that order —
// the one rule every stored order is read by. A stream of rows, a width's
// materialization, is indexed through perm; a sparse queue is read in stored
// order wherever the dense stream its escapes consume marks one (an escaped
// rank consumes an exception, from md.codes; a set mask flag a correction,
// from t.Num); a fallback column's values come from t and a trivial column's
// codes from md. Where perm is a run of consecutive rows, a dense stream held
// in the right type is a slice of its source, not a copy.
func gather(key streamKey, perm []int, rows streamSet, t *dataset.Table, md *modelData) (s stream) {
	switch key.kind {
	case failExceptions, failContVals:
		marks, escape := rows[streamKey{failContMask, key.col, 0}].ints, int64(1)
		if key.kind == failExceptions {
			marks, escape = rows[streamKey{failInts, key.col, 0}].ints, int64(md.specs[md.specOfCol[key.col]].Card)
		}
		for _, r := range perm {
			switch {
			case marks[r] != escape:
			case key.kind == failExceptions:
				s.ints = append(s.ints, int64(md.codes[key.col][r]))
			default:
				s.floats = append(s.floats, t.Num[key.col][r])
			}
		}
	case fallbackStrs:
		s.strs = gatherRows(t.Str[key.col], perm)
	case fallbackNums:
		s.floats = gatherRows(t.Num[key.col], perm)
	case trivialCodes:
		s.ints = make([]int64, len(perm))
		for i, r := range perm {
			s.ints[i] = int64(md.codes[key.col][r])
		}
	default:
		s.ints = gatherRows(rows[key].ints, perm)
	}
	return s
}

// gatherRows returns src's values at the rows of perm, in that order: a
// slice of src when perm is a run of consecutive rows, a copy otherwise.
func gatherRows[T any](src []T, perm []int) []T {
	for i, r := range perm {
		if r != perm[0]+i {
			out := make([]T, len(perm))
			for i, r := range perm {
				out[i] = src[r]
			}
			return out
		}
	}
	if len(perm) == 0 {
		return nil
	}
	return src[perm[0] : perm[0]+len(perm)]
}

// modelStreams is the set one stored order is priced by: every stream of rows
// (the code dimensions and the model columns' dense streams) gathered into the
// order of perm, and each model column's sparse queue when it holds
// something.
func modelStreams(perm []int, rows streamSet, t *dataset.Table, md *modelData) streamSet {
	set := make(streamSet, len(rows))
	for key := range rows {
		set[key] = gather(key, perm, rows, t, md)
	}
	for col := range md.plan.Cols {
		if md.specOfCol[col] < 0 {
			continue
		}
		for _, e := range colStreams(md.plan, md.layout, col) {
			if kindSpecs[e.kind].dense {
				continue
			}
			key := streamKey{e.kind, col, e.digit}
			if s := gather(key, perm, rows, t, md); len(s.ints)+len(s.floats) > 0 {
				set[key] = s
			}
		}
	}
	return set
}

// nearestLevel maps a regression output in [0,1] to the nearest discrete
// level of the column (bucket index or value rank).
func nearestLevel(cp *preprocess.ColPlan, pred float64, lv int) int {
	if cp.Kind == preprocess.KindNumQuant {
		return cp.Quant.Bucket(pred)
	}
	idx := int(math.Round(pred * float64(lv-1)))
	if idx < 0 {
		idx = 0
	}
	if idx >= lv {
		idx = lv - 1
	}
	return idx
}

// streamKind and streamKey name one chunk of a segment by what it stores: a
// code dimension (digit is the dimension), or one of a column's chunks (digit
// is a residual column's digit).
type streamKind uint8

const (
	codeDim        streamKind = iota
	failInts                  // model column: one failure per row
	failDigit                 // residual column: one digit's failure ranks
	failExceptions            // categorical model column: the escaped codes
	failContMask              // continuous column: misprediction flags
	failContVals              // continuous column: the mispredicted values
	fallbackStrs              // categorical fallback column: its values
	fallbackNums              // numeric fallback column: its values
	trivialCodes              // trivial column: its codes
)

type streamKey struct {
	kind       streamKind
	col, digit int
}

// frameType is what a chunk's frame decodes to.
type frameType uint8

const (
	frameInts frameType = iota
	frameFloats
	frameStrings
)

// kindSpecs says how each kind is stored: the name StreamStat.Stream reports,
// the frame type, and whether the stream is dense — exactly one value per row
// of its group — or a sparse queue of at most that many.
var kindSpecs = [...]struct {
	name  string
	frame frameType
	dense bool
}{
	codeDim:        {"codes", frameInts, true},
	failInts:       {"failures", frameInts, true},
	failDigit:      {"failures", frameInts, true},
	failExceptions: {"exceptions", frameInts, false},
	failContMask:   {"mask", frameInts, true},
	failContVals:   {"values", frameFloats, false},
	fallbackStrs:   {"fallback", frameStrings, true},
	fallbackNums:   {"fallback", frameFloats, true},
	trivialCodes:   {"trivial", frameInts, true},
}

// colStream is one chunk a column writes per segment.
type colStream struct {
	kind  streamKind
	digit int
}

var (
	streamsContinuous  = []colStream{{failContMask, 0}, {failContVals, 0}}
	streamsCategorical = []colStream{{failInts, 0}, {failExceptions, 0}}
	streamsDiscrete    = []colStream{{failInts, 0}}
	streamsFallbackCat = []colStream{{fallbackStrs, 0}}
	streamsFallbackNum = []colStream{{fallbackNums, 0}}
	streamsTrivial     = []colStream{{trivialCodes, 0}}
)

// colStreams is the one place that says what a column stores: its chunks per
// segment, in chunk order, each kind's name, frame type and density in
// kindSpecs. A model column's first chunk holds one value per row and a second
// is the queue its escapes consume; a residual column stores one rank chunk
// per digit and never escapes. The result is shared and must not be modified.
func colStreams(plan *preprocess.Plan, lo *layout, col int) []colStream {
	cp := &plan.Cols[col]
	modeled := lo.specOfCol[col] >= 0
	switch {
	case cp.Kind == preprocess.KindCatResidual:
		digits := make([]colStream, cp.ResDigits)
		for d := range digits {
			digits[d] = colStream{failDigit, d}
		}
		return digits
	case modeled && cp.Kind == preprocess.KindNumContinuous:
		return streamsContinuous
	case modeled && lo.specs[lo.specOfCol[col]].Kind == nn.OutCategorical:
		return streamsCategorical
	case modeled:
		return streamsDiscrete
	case cp.Kind == preprocess.KindFallbackCat:
		return streamsFallbackCat
	case cp.Kind == preprocess.KindFallbackNum:
		return streamsFallbackNum
	default:
		return streamsTrivial
	}
}

// stream is one chunk's values, in the field its kind's frame type names.
type stream struct {
	ints   []int64
	floats []float64
	strs   []string
}

// pack frames s, a stream of kind.
func (s *stream) pack(kind streamKind) []byte {
	switch kindSpecs[kind].frame {
	case frameFloats:
		return colfile.PackFloats(s.floats)
	case frameStrings:
		return colfile.PackStrings(s.strs)
	}
	return codec.CompressInts(s.ints, codec.Auto)
}

// unpackStream decodes a chunk of stream key, holding a dense stream to
// exactly count values and a sparse queue to at most count: the one length
// check every chunk of a segment passes.
func unpackStream(chunk []byte, key streamKey, count int) (s stream, err error) {
	n := 0
	switch kindSpecs[key.kind].frame {
	case frameFloats:
		s.floats, err = colfile.UnpackFloatsMax(chunk, count)
		n = len(s.floats)
	case frameStrings:
		s.strs, err = colfile.UnpackStringsMax(chunk, count)
		n = len(s.strs)
	default:
		s.ints, err = codec.DecompressInts(chunk, count)
		n = len(s.ints)
	}
	if err != nil {
		return s, corrupt(err)
	}
	if kindSpecs[key.kind].dense && n != count {
		return s, fmt.Errorf("%w: %s chunk %d of column %d has %d values, want %d",
			ErrCorrupt, kindSpecs[key.kind].name, key.digit, key.col, n, count)
	}
	return s, nil
}

// packedStream is one stream and its packed frame, nil until packed. The
// stream is held by reference: streams never change once computed.
type packedStream struct {
	stream
	frame []byte
}

// same reports whether s and o pack to the same frame: equal values, floats
// compared by bit pattern (-0 and +0 pack differently).
func (s *stream) same(o *stream) bool {
	return slices.Equal(s.ints, o.ints) && slices.Equal(s.strs, o.strs) &&
		slices.EqualFunc(s.floats, o.floats, func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		})
}

// packings is every stream of one priced set (modelStreams) and, once packAll
// has run, its frame: what a truncation candidate or a stored order costs
// and, for the winner, the frames assembly writes instead of packing the same
// streams again. A packings lives in one archiveState from decide until
// buildState has built the segments.
type packings struct {
	streams map[streamKey]*packedStream
	size    int64 // total frame bytes, set by packAll
}

// newPackings lists the streams of set, none packed yet.
func newPackings(set streamSet) *packings {
	p := &packings{streams: make(map[streamKey]*packedStream, len(set))}
	for key, s := range set {
		p.streams[key] = &packedStream{stream: s}
	}
	return p
}

// packAll packs every stream of every set in chain and totals each set's
// size. A stream that already has a frame keeps it, and one equal to the
// stream under the same key in the set before it shares that frame — the
// truncation search's 16-, 24- and 32-bit candidates mostly derive identical
// failure streams. Which streams share is settled before anything packs, and
// the rest pack concurrently over run's pool, so the work and the frames are
// the same at every parallelism level.
func packAll(run *pipeline.Run, chain ...*packings) error {
	type job struct {
		s    *packedStream
		kind streamKind
	}
	type alias struct{ dst, src *packedStream }
	var work []job
	var aliases []alias // in chain order, so every source resolves first
	for i, p := range chain {
		for key, s := range p.streams {
			if s.frame != nil {
				continue
			}
			if i > 0 {
				if prev := chain[i-1].streams[key]; prev != nil && prev.same(&s.stream) {
					aliases = append(aliases, alias{s, prev})
					continue
				}
			}
			work = append(work, job{s, key.kind})
		}
	}
	err := run.ForEach(len(work), func(i int) error {
		j := work[i]
		j.s.frame = j.s.pack(j.kind)
		return nil
	})
	if err != nil {
		return err
	}
	for _, a := range aliases {
		a.dst.frame = a.src.frame
	}
	for _, p := range chain {
		p.size = 0
		for _, s := range p.streams {
			p.size += int64(len(s.frame))
		}
	}
	return nil
}

// frame returns the frame of stream s stored at key: p's when p holds the
// same stream packed, a fresh packing otherwise (always, for a nil p).
func (p *packings) frame(key streamKey, s stream) []byte {
	if p != nil {
		if kept := p.streams[key]; kept != nil && kept.frame != nil && kept.same(&s) {
			return kept.frame
		}
	}
	return s.pack(key.kind)
}
