package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

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

// expertPositions groups the stored positions by assigned expert in one pass.
// perm maps stored position → original row; assign is indexed by original
// row. Positions come out ascending within each expert.
func expertPositions(assign []int, perm []int, numExperts int) [][]int {
	return expertPositionsRange(assign, perm, numExperts, 0, len(perm))
}

// expertPositionsRange is expertPositions restricted to stored positions
// whose original row falls in [lo, hi) — how a row-ranged decompression
// avoids running decoder inference for rows it will not materialize.
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

// expertBatches feeds one expert's stored positions through its decoder —
// dec32, the float32 view, when the archive plan carries flagFloat32 —
// restricted to want, in decodeBatchRows-sized chunks gathered into st.
// Iteration is expert-major with ascending stored positions inside each
// expert, which both compression and decompression follow identically; the
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

// failureSet holds the model columns' chunks (colStreams' entries of every
// column with a spec) in stored order: each dense stream indexed by stored
// position, each sparse queue — escaped codes, or the values of mispredicted
// continuous rows — ordered by the stored position of the row that consumes
// it. A queue is present only when it holds something.
type failureSet map[streamKey]stream

// newFailureSet returns md's failure set with each dense stream n zeros long
// and no queue: computeFailures fills it in, and with n = 0 it is the failure
// set of a table without a model (no columns with specs, or no rows).
func newFailureSet(md *modelData, n int) failureSet {
	fs := make(failureSet)
	for col := range md.plan.Cols {
		if md.specOfCol[col] < 0 {
			continue
		}
		for _, e := range colStreams(md.plan, md.layout, col) {
			if kindSpecs[e.kind].dense { // every dense model stream is an int stream
				fs[streamKey{e.kind, col, e.digit}] = stream{ints: make([]int64, n)}
			}
		}
	}
	return fs
}

// groupStreams is what one stored order costs at one code width: stored holds
// the float codes in the order of perm; they are quantized to bits and every
// tuple is run back through its expert's decoder to derive the failure
// streams. The truncation search, the mapping choice and the streaming
// writer's later groups all price or emit their rows through it.
func groupStreams(run *pipeline.Run, t *dataset.Table, st *archiveState, stored *mat.Matrix, perm []int, bits int) ([][]int64, failureSet, error) {
	dims, rec := quantizeCodes(stored, bits)
	fs, err := computeFailures(run, t, st.md, st.decoders, st.assign, rec, perm)
	return dims, fs, err
}

// posVal is one value of a sparse queue and the stored position of the row
// that consumes it.
type posVal[T any] struct {
	pos int
	val T
}

// queue orders a sparse queue's values by stored position, the order the
// reader consumes them in (stored positions are unique, so the order is
// total).
func queue[T any](pv []posVal[T]) []T {
	sort.Slice(pv, func(i, j int) bool { return pv[i].pos < pv[j].pos })
	vals := make([]T, len(pv))
	for i, e := range pv {
		vals[i] = e.val
	}
	return vals
}

// computeFailures runs every tuple through its expert's decoder using the
// reconstructed codes and derives the per-column failure streams. Experts are
// processed concurrently over the run's pool: the dense streams are written
// into disjoint stored-position slots (the set is fully keyed before the
// fan-out, so workers only read it), and the sparse exception /
// continuous-correction queues are collected per expert and merged by stored
// position afterwards — the result is identical at every parallelism level.
// Inference is float64: no writer emits the float32 plan (DESIGN.md §15). t
// supplies the raw values mispredicted continuous tuples store as corrections.
func computeFailures(run *pipeline.Run, t *dataset.Table, md *modelData, decoders []*nn.Decoder,
	assign []int, recCodes *mat.Matrix, perm []int) (failureSet, error) {
	fs := newFailureSet(md, len(perm))
	posBy := expertPositions(assign, perm, len(decoders))
	perExcepts := make([]map[int][]posVal[int64], len(decoders))
	perContws := make([]map[int][]posVal[float64], len(decoders))
	err := run.ForEach(len(decoders), func(e int) error {
		excepts := make(map[int][]posVal[int64])
		contws := make(map[int][]posVal[float64])
		dec := decoders[e]
		expertBatches(new(inferState), dec, nil, nil, recCodes, posBy[e], func(chunk []int, p *nn.Predictions) {
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
						for i, s := range chunk {
							orig := perm[s]
							pred := p.Num.At(i, np)
							if math.Abs(pred-vals[orig]) <= cp.Threshold {
								mask[s] = 0
							} else {
								mask[s] = 1
								contws[col] = append(contws[col], posVal[float64]{s, t.Num[col][orig]})
							}
						}
						continue
					}
					lv := levels(cp)
					cc := md.codes[col]
					for i, s := range chunk {
						predIdx := nearestLevel(cp, p.Num.At(i, np), lv)
						out[s] = int64(cc[perm[s]] - predIdx)
					}
				case nn.OutBinary:
					bp := dec.BinPos(si)
					cc := md.codes[col]
					for i, s := range chunk {
						predBit := 0
						if p.Bin.At(i, bp) >= 0.5 {
							predBit = 1
						}
						out[s] = int64(predBit ^ cc[perm[s]])
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
						for i, s := range chunk {
							out[s] = int64(rankOf(probs.Row(i), l.Digit(cc[perm[s]], d)))
						}
						continue
					}
					for i, s := range chunk {
						actual := cc[perm[s]]
						if actual >= spec.Card {
							out[s] = int64(spec.Card) // escape
							excepts[col] = append(excepts[col], posVal[int64]{s, int64(actual)})
							continue
						}
						out[s] = int64(rankOf(probs.Row(i), actual))
					}
				}
			}
		})
		perExcepts[e] = excepts
		perContws[e] = contws
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Merge the per-expert queues, then order each by stored position.
	excepts := make(map[int][]posVal[int64])
	contws := make(map[int][]posVal[float64])
	for e := range decoders {
		for col, pv := range perExcepts[e] {
			excepts[col] = append(excepts[col], pv...)
		}
		for col, pv := range perContws[e] {
			contws[col] = append(contws[col], pv...)
		}
	}
	for col, pv := range excepts {
		fs[streamKey{failExceptions, col, 0}] = stream{ints: queue(pv)}
	}
	for col, pv := range contws {
		fs[streamKey{failContVals, col, 0}] = stream{floats: queue(pv)}
	}
	return fs, nil
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

// slice returns values [lo, hi) of s, a stream of kind.
func (s stream) slice(kind streamKind, lo, hi int) stream {
	switch kindSpecs[kind].frame {
	case frameFloats:
		return stream{floats: s.floats[lo:hi]}
	case frameStrings:
		return stream{strs: s.strs[lo:hi]}
	}
	return stream{ints: s.ints[lo:hi]}
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

// packings is every stream of one (code dimensions, failure set) pair and,
// once packAll has run, its frame: what a truncation
// candidate costs and, for the winner, the frames assembly writes instead of
// packing the same streams again. A packings lives in one archiveState from
// decide until frameState has built the segments.
type packings struct {
	streams map[streamKey]*packedStream
	size    int64 // total frame bytes, set by packAll
}

// newPackings lists the streams of codeDims and fs, none packed yet.
func newPackings(fs failureSet, codeDims [][]int64) *packings {
	p := &packings{streams: make(map[streamKey]*packedStream, len(codeDims)+len(fs))}
	for d, s := range codeDims {
		p.streams[streamKey{codeDim, 0, d}] = &packedStream{stream: stream{ints: s}}
	}
	for key, s := range fs {
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
