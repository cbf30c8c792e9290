// Package codec is the per-stream compression layer behind every archive
// chunk. A stream is wrapped in a self-describing frame whose first byte names
// the codec; tags 0 (stored) and 1 (DEFLATE) are the historical colfile tag
// byte, so every archive ever written decodes unchanged, and tags 2–3 are
// range coding against learned symbol models (paper §6.3's entropy stage; the
// Squish-style arithmetic coder applied to DeepSqueeze's streams).
//
// Integer streams — failure ranks, truncated codes, expert mappings — are the
// range coder's territory: their alphabets are small and heavily skewed
// (ranks concentrate at 0 by construction), which adaptive range coding
// exploits below the 1-bit-per-symbol floor a Huffman-based byte codec
// cannot cross. Byte streams (string/float chunk layouts, the decoder
// section) are stored or DEFLATE.
//
// Writers offer, readers keep: CompressInts builds a stored frame, an
// adaptive range frame and — where it can pay (deflateMayPay) — a DEFLATE
// pass, and keeps the smallest, while DecompressInts still reads every
// DEFLATE frame and the static-table range frames (tag 3) earlier writers
// built. Byte streams are offered DEFLATE always: it is their only entropy
// stage. Every DEFLATE frame, and every packed dictionary preprocess writes,
// comes from one pooled writer (Deflate).
package codec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"

	"deepsqueeze/internal/colenc"
	"deepsqueeze/internal/rangecoder"
)

// ErrCorrupt is returned when a stream frame fails validation.
var ErrCorrupt = errors.New("codec: corrupt stream frame")

// Frame tags. Part of the on-disk format; do not renumber. Tags 0 and 1 are
// byte-identical to the pre-codec colfile stored/DEFLATE tag byte.
const (
	TagStored        byte = 0 // payload as-is
	TagDeflate       byte = 1 // raw DEFLATE (compress/flate, not gzip)
	TagRangeAdaptive byte = 2 // range-coded ints, adaptive frequency model
	TagRangeCPT      byte = 3 // range-coded ints, static quantized table; decoded only
)

// Mask selects which frames CompressInts may build. The zero Mask means
// Auto; Stored is always implied — every stream needs a fallback that can
// represent it.
type Mask uint8

// Mask bits, one per frame tag a writer builds.
const (
	MaskStored Mask = 1 << iota
	MaskDeflate
	MaskRangeAdaptive
)

// Auto enables every frame: what archive writers use.
const Auto = MaskStored | MaskDeflate | MaskRangeAdaptive

// ByteOnly is the historical stored/DEFLATE pair, the pre-codec archive
// behavior.
const ByteOnly = MaskStored | MaskDeflate

// normalize resolves the zero value to Auto and forces the Stored fallback.
func (m Mask) normalize() Mask {
	if m == 0 {
		return Auto
	}
	return m | MaskStored
}

// Name returns the human-readable codec name for a frame tag.
func Name(tag byte) string {
	switch tag {
	case TagStored:
		return "stored"
	case TagDeflate:
		return "deflate"
	case TagRangeAdaptive:
		return "range-adaptive"
	case TagRangeCPT:
		return "range-cpt"
	}
	return fmt.Sprintf("unknown(%d)", tag)
}

// MaxInflatedBytes caps the output of a single DEFLATE frame. DEFLATE tops
// out near 1032:1, so reaching this cap takes a ~256 KiB compressed chunk —
// far beyond anything this codebase writes — while a crafted bomb in a
// corrupt archive is cut off instead of exhausting memory.
const MaxInflatedBytes = 1 << 28

// maxRangeValues caps both the symbol count a range frame may carry and the
// count an unbounded decode will honor — the range-codec analogue of
// MaxInflatedBytes (a range frame decodes to at most 8·maxRangeValues
// bytes of int64s). Streams longer than this fall back to the byte codecs.
const maxRangeValues = 1 << 25

// maxRangeAlphabet bounds the symbol alphabet (max−min+1) a range frame may
// declare. Wide alphabets make poor range candidates — the adaptive model
// starts uniform, and a static-table frame carries one table byte per
// symbol — and the bound keeps model totals comfortably inside
// rangecoder.MaxTotal.
const maxRangeAlphabet = 1 << 15

// rangeInc is the adaptive model's frequency increment. It is part of the
// frame format: encoder and decoder must agree on it for lockstep adaptation.
const rangeInc = 32

// deflateFloor is the stream size from which CompressInts always offers
// DEFLATE. Below it DEFLATE is offered only to a stream holding a repeat it
// can match: without one, compress/flate emits a literal-only block —
// order-0 Huffman over bytes, the entropy work the range frame does — at a
// cost a pass that barely depends on the stream's size: the matcher's 640 KB
// of hash chains cleared and three Huffman tables built, 17 µs for 16 bytes
// and 32 µs for 200 on a 2-vCPU amd64 host. A census
// of every CompressInts call of one benchmark compress, seeds 1–5: on
// serve-pruned (≈ 1 800 streams of 100–300 B) DEFLATE now runs on 41–98 of
// them and its time falls by 92–96 %, for 59–133 B of archive growth
// (≤ 0.046 %); the archive-numeric archives, whose 4 KB streams win by
// literal Huffman, and the archive-categorical ones do not move a byte.
const deflateFloor = 512

// minMatch is the shortest match compress/flate emits (its minMatchLength):
// a stream without a repeated minMatch-byte sequence gives LZ77 nothing.
const minMatch = 4

// repeatBits sizes deflateMayPay's open-addressing table: 1<<repeatBits
// slots, twice the most minMatch-byte sequences a stream under deflateFloor
// holds, so that the table is at most half full and probes stay short.
const repeatBits = 10

// deflateMayPay reports whether CompressInts offers DEFLATE to the stored
// form enc: it is at least deflateFloor bytes, or some minMatch-byte sequence
// occurs at two of its positions, overlapping ones included, as LZ77 matches
// them. Each sequence is kept whole in an open-addressing table, so a hash
// collision costs a probe and can neither hide a repeat nor invent one.
func deflateMayPay(enc []byte) bool {
	if len(enc) >= deflateFloor {
		return true
	}
	const mask = 1<<repeatBits - 1
	var slots [1 << repeatBits]uint64 // 1<<32 | sequence; 0 is empty
	for i := 0; i+minMatch <= len(enc); i++ {
		key := 1<<32 | uint64(binary.LittleEndian.Uint32(enc[i:]))
		for h := uint32(key) * 0x9e3779b1 >> (32 - repeatBits); ; h = (h + 1) & mask {
			if slots[h] == key {
				return true
			}
			if slots[h] == 0 {
				slots[h] = key
				break
			}
		}
	}
	return false
}

// Deflate returns payload's raw DEFLATE body (BestCompression, no frame
// tag), built by the pooled writer CompressBytes and CompressInts use.
func Deflate(payload []byte) []byte {
	s := scratches.Get().(*scratch)
	defer scratches.Put(s)
	return bytes.Clone(s.deflate(payload)[1:])
}

// CompressBytes wraps an opaque byte payload in its DEFLATE frame when that
// is strictly smaller than the stored one, and in the stored frame otherwise.
func CompressBytes(payload []byte) []byte {
	s := scratches.Get().(*scratch)
	defer scratches.Put(s)
	if f := s.deflate(payload); len(f) < len(payload)+1 {
		return bytes.Clone(f)
	}
	return appendStored(nil, payload)
}

// appendStored appends payload's stored frame to dst.
func appendStored(dst, payload []byte) []byte {
	return append(append(slices.Grow(dst, len(payload)+1), TagStored), payload...)
}

// scratch is the reusable state of one frame's encoding: a BestCompression
// DEFLATE writer, made on first use — flate.NewWriter allocates and zeroes
// about 1.2 MB of matcher state, far more than the streams compressed here,
// and Writer.Reset reuses it — and the buffers candidate frames are built in.
// Callers get copies.
type scratch struct {
	fw         *flate.Writer
	deflated   bytes.Buffer
	best, cand []byte // CompressInts: the smallest frame so far, the one on trial
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}

// deflate returns payload's DEFLATE frame, valid until the scratch is used
// again.
func (s *scratch) deflate(payload []byte) []byte {
	if s.fw == nil {
		s.fw, _ = flate.NewWriter(nil, flate.BestCompression) // fails on a bad level only
	}
	s.deflated.Reset()
	s.deflated.WriteByte(TagDeflate)
	s.fw.Reset(&s.deflated)
	s.fw.Write(payload) // a bytes.Buffer takes every write
	s.fw.Close()
	return s.deflated.Bytes()
}

// try makes frame the incumbent if it is strictly smaller.
func (s *scratch) try(frame []byte) {
	if s.cand = frame; len(frame) < len(s.best) {
		s.best, s.cand = s.cand, s.best
	}
}

// DecompressBytes inverts CompressBytes. Only the byte codecs are legal
// here; a range tag in a byte stream is a format violation.
func DecompressBytes(frame []byte) ([]byte, error) {
	if len(frame) == 0 {
		return nil, fmt.Errorf("%w: empty chunk", ErrCorrupt)
	}
	switch frame[0] {
	case TagStored:
		return frame[1:], nil
	case TagDeflate:
		return Inflate(frame[1:], MaxInflatedBytes)
	case TagRangeAdaptive, TagRangeCPT:
		return nil, fmt.Errorf("%w: range frame in a byte stream", ErrCorrupt)
	default:
		return nil, fmt.Errorf("%w: unknown stream codec tag %d", ErrCorrupt, frame[0])
	}
}

// inflater is the reusable state of one DEFLATE frame's decoding, the read
// side of scratch: a reader reset per frame through flate.Resetter —
// flate.NewReader allocates its 32 KB window and decoding tables on every
// call — and the buffer it inflates into, which keeps its capacity.
type inflater struct {
	src bytes.Reader
	fr  io.ReadCloser
	lim io.LimitedReader
	out bytes.Buffer
}

var inflaters = sync.Pool{New: func() any { return new(inflater) }}

// inflate decompresses a raw DEFLATE body of at most limit bytes — more is
// ErrCorrupt — into the inflater's buffer, valid until its next use.
func (f *inflater) inflate(body []byte, limit int) ([]byte, error) {
	f.src.Reset(body)
	if f.fr == nil {
		f.fr = flate.NewReader(&f.src)
	} else {
		f.fr.(flate.Resetter).Reset(&f.src, nil) // fails on a bad dictionary only
	}
	f.lim = io.LimitedReader{R: f.fr, N: int64(limit) + 1}
	f.out.Reset()
	if _, err := f.out.ReadFrom(&f.lim); err != nil {
		return nil, fmt.Errorf("%w: inflate: %v", ErrCorrupt, err)
	}
	if f.out.Len() > limit {
		return nil, fmt.Errorf("%w: inflated chunk exceeds %d bytes", ErrCorrupt, limit)
	}
	return f.out.Bytes(), nil
}

// Inflate decompresses a raw DEFLATE body of at most limit bytes into a slice
// of exactly its length; a longer or malformed body is ErrCorrupt.
func Inflate(body []byte, limit int) ([]byte, error) {
	f := inflaters.Get().(*inflater)
	defer inflaters.Put(f)
	out, err := f.inflate(body, limit)
	if err != nil {
		return nil, err
	}
	return bytes.Clone(out), nil
}

// CompressInts encodes an integer stream with the smallest frame mask allows:
// the colenc stored form, its DEFLATE pass when deflateMayPay admits it, and
// — when the stream has a modelable alphabet — the adaptive range frame.
// Candidates are tried in tag order and replaced only when strictly smaller,
// so the choice is a pure function of the stream bytes (deterministic at
// every parallelism level), and a stream the gate admits gets the frame it
// would get ungated. They are built in reused scratch; only the winner is
// copied out.
func CompressInts(values []int64, mask Mask) []byte {
	mask = mask.normalize()
	enc := colenc.EncodeBest(values)
	s := scratches.Get().(*scratch)
	defer scratches.Put(s)
	s.best = appendStored(s.best[:0], enc)
	if mask&MaskDeflate != 0 && deflateMayPay(enc) {
		if f := s.deflate(enc); len(f) < len(s.best) {
			s.best = append(s.best[:0], f...)
		}
	}
	if mask&MaskRangeAdaptive != 0 && len(values) > 0 && len(values) <= maxRangeValues {
		base, hi := values[0], values[0]
		for _, v := range values[1:] {
			if v < base {
				base = v
			}
			if v > hi {
				hi = v
			}
		}
		// uint64 subtraction is exact for any int64 pair with hi ≥ base.
		if span := uint64(hi) - uint64(base); span < maxRangeAlphabet {
			s.try(appendRangeAdaptive(s.cand[:0], values, base, int(span)+1))
		}
	}
	return bytes.Clone(s.best)
}

// DecompressInts inverts CompressInts, rejecting streams that declare more
// than max values before allocating for them. max < 0 disables the bound
// (range frames then fall back to the maxRangeValues cap).
func DecompressInts(frame []byte, max int) ([]int64, error) {
	if len(frame) == 0 {
		return nil, fmt.Errorf("%w: empty chunk", ErrCorrupt)
	}
	switch frame[0] {
	case TagStored:
		return decodeStored(frame[1:], max)
	case TagDeflate:
		f := inflaters.Get().(*inflater)
		defer inflaters.Put(f)
		body, err := f.inflate(frame[1:], MaxInflatedBytes)
		if err != nil {
			return nil, err
		}
		return decodeStored(body, max) // decodes into values of its own
	case TagRangeAdaptive, TagRangeCPT:
		return decodeRangeInts(frame, max)
	default:
		return nil, fmt.Errorf("%w: unknown stream codec tag %d", ErrCorrupt, frame[0])
	}
}

// decodeStored decodes a stored-form body, classifying its errors — colenc's
// and those of the Huffman decoder it delegates to — under ErrCorrupt.
func decodeStored(body []byte, max int) ([]int64, error) {
	out, err := colenc.DecodeBestMax(body, max)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return out, nil
}

// rangeHeader writes the shared range-frame prefix: tag, symbol count,
// zigzag-coded base value (the stream minimum), and alphabet size.
func rangeHeader(out []byte, tag byte, count int, base int64, alphabet int) []byte {
	out = append(out, tag)
	out = binary.AppendUvarint(out, uint64(count))
	out = binary.AppendVarint(out, base)
	out = binary.AppendUvarint(out, uint64(alphabet))
	return out
}

// appendRangeAdaptive builds a TagRangeAdaptive frame: symbols v−base coded
// against an adaptive model that starts uniform and learns the stream's skew
// as it goes. Nothing but the header is shipped — the decoder rebuilds the
// identical model trajectory.
func appendRangeAdaptive(out []byte, values []int64, base int64, alphabet int) []byte {
	out = rangeHeader(out, TagRangeAdaptive, len(values), base, alphabet)
	m := rangecoder.NewAdaptiveModel(alphabet, rangeInc)
	e := rangecoder.NewEncoder()
	for _, v := range values {
		m.EncodeSymbol(e, int(v-base))
	}
	return append(out, e.Bytes()...)
}

// decodeRangeInts decodes a range frame of either flavor: an adaptive one in
// rangecoder.DecodeAdaptive's single loop, a static-table one symbol by
// symbol. The declared count and alphabet are bounds-checked before
// allocation, and the coder's overrun counter is consulted per symbol so a
// truncated body fails with ErrCorrupt instead of silently decoding zero
// padding.
func decodeRangeInts(frame []byte, max int) ([]int64, error) {
	r := frame[1:]
	count64, n := binary.Uvarint(r)
	if n <= 0 {
		return nil, fmt.Errorf("%w: missing range symbol count", ErrCorrupt)
	}
	r = r[n:]
	if max >= 0 && count64 > uint64(max) {
		return nil, fmt.Errorf("%w: range frame declares %d values, expected at most %d", ErrCorrupt, count64, max)
	}
	if count64 > maxRangeValues {
		return nil, fmt.Errorf("%w: range frame declares %d values", ErrCorrupt, count64)
	}
	base, n := binary.Varint(r)
	if n <= 0 {
		return nil, fmt.Errorf("%w: missing range base", ErrCorrupt)
	}
	r = r[n:]
	alphabet64, n := binary.Uvarint(r)
	if n <= 0 {
		return nil, fmt.Errorf("%w: missing range alphabet", ErrCorrupt)
	}
	r = r[n:]
	if alphabet64 == 0 || alphabet64 > maxRangeAlphabet {
		return nil, fmt.Errorf("%w: range alphabet %d", ErrCorrupt, alphabet64)
	}
	alphabet := int(alphabet64)
	out := make([]int64, count64)
	if frame[0] == TagRangeAdaptive {
		if at := rangecoder.DecodeAdaptive(r, alphabet, rangeInc, base, out); at >= 0 {
			return nil, fmt.Errorf("%w: range frame truncated at symbol %d", ErrCorrupt, at)
		}
		return out, nil
	}
	t, used, err := parseStaticTable(r, alphabet)
	if err != nil {
		return nil, err
	}
	d := rangecoder.NewDecoder(r[used:])
	for i := range out {
		if out[i] = base + int64(t.decode(d)); d.Overrun() {
			return nil, fmt.Errorf("%w: range frame truncated at symbol %d", ErrCorrupt, i)
		}
	}
	return out, nil
}

// staticTable is the quantized frequency table a TagRangeCPT frame carries,
// the in-frame twin of squish's CPT: frequencies 1..256 serialized as one
// byte each (freq−1). Writers no longer build these frames; the table is
// parsed to decode the ones archives hold.
type staticTable struct {
	freq []uint16
	cum  []uint32 // cumulative, len = alphabet+1
	tot  uint32
}

func (t *staticTable) finish() {
	t.cum = make([]uint32, len(t.freq)+1)
	var acc uint32
	for s, f := range t.freq {
		t.cum[s] = acc
		acc += uint32(f)
	}
	t.cum[len(t.freq)] = acc
	t.tot = acc
}

// parseStaticTable decodes an in-frame table, rejecting totals the range
// coder cannot represent (a crafted wide-alphabet table would otherwise
// panic the decoder).
func parseStaticTable(buf []byte, alphabet int) (*staticTable, int, error) {
	if len(buf) < alphabet {
		return nil, 0, fmt.Errorf("%w: truncated range frequency table", ErrCorrupt)
	}
	t := &staticTable{freq: make([]uint16, alphabet)}
	for s := range t.freq {
		t.freq[s] = uint16(buf[s]) + 1
	}
	t.finish()
	if t.tot > rangecoder.MaxTotal {
		return nil, 0, fmt.Errorf("%w: range frequency total %d exceeds coder limit", ErrCorrupt, t.tot)
	}
	return t, alphabet, nil
}

// decode reads one symbol against the static statistics.
func (t *staticTable) decode(d *rangecoder.Decoder) int {
	target := d.DecodeFreq(t.tot)
	s := sort.Search(len(t.freq), func(i int) bool { return t.cum[i+1] > target })
	d.Update(t.cum[s], uint32(t.freq[s]))
	return s
}

// FrameInfo describes one frame for inspection tooling: which codec was
// chosen, the frame's size, and the stream's stored-form ("raw") size — the
// bytes the stream would occupy before any byte- or range-entropy pass, so
// compressed-vs-raw ratios are comparable across codecs.
type FrameInfo struct {
	Codec      string
	FrameBytes int64
	RawBytes   int64
	// Values is the symbol count a range frame declares; 0 for byte codecs
	// (their frames do not carry a count).
	Values int
}

// InspectInts classifies an integer-stream frame. Stored frames read their
// size directly; DEFLATE frames inflate (under the cap) to recover the
// stored-form size; range frames decode and re-encode through colenc so the
// reported raw size is the same stored form the other tags report.
func InspectInts(frame []byte, max int) (FrameInfo, error) {
	if len(frame) == 0 {
		return FrameInfo{}, fmt.Errorf("%w: empty chunk", ErrCorrupt)
	}
	info := FrameInfo{Codec: Name(frame[0]), FrameBytes: int64(len(frame))}
	switch frame[0] {
	case TagStored:
		info.RawBytes = int64(len(frame))
	case TagDeflate:
		body, err := Inflate(frame[1:], MaxInflatedBytes)
		if err != nil {
			return FrameInfo{}, err
		}
		info.RawBytes = int64(len(body)) + 1
	case TagRangeAdaptive, TagRangeCPT:
		values, err := decodeRangeInts(frame, max)
		if err != nil {
			return FrameInfo{}, err
		}
		info.Values = len(values)
		info.RawBytes = int64(len(colenc.EncodeBest(values))) + 1
	default:
		return FrameInfo{}, fmt.Errorf("%w: unknown stream codec tag %d", ErrCorrupt, frame[0])
	}
	return info, nil
}

// InspectBytes classifies a byte-stream frame (string/float chunk layouts,
// decoder sections): stored or DEFLATE only.
func InspectBytes(frame []byte) (FrameInfo, error) {
	if len(frame) == 0 {
		return FrameInfo{}, fmt.Errorf("%w: empty chunk", ErrCorrupt)
	}
	info := FrameInfo{Codec: Name(frame[0]), FrameBytes: int64(len(frame))}
	switch frame[0] {
	case TagStored:
		info.RawBytes = int64(len(frame))
	case TagDeflate:
		body, err := Inflate(frame[1:], MaxInflatedBytes)
		if err != nil {
			return FrameInfo{}, err
		}
		info.RawBytes = int64(len(body)) + 1
	default:
		return FrameInfo{}, fmt.Errorf("%w: unknown stream codec tag %d", ErrCorrupt, frame[0])
	}
	return info, nil
}
