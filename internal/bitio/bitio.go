// Package bitio provides bit-granular writers and readers over byte
// buffers. The columnar codecs (bit-packing, Huffman, run-length bitmaps)
// and the range coder all sit on top of it.
//
// Bits are written most-significant-bit first within each byte, which makes
// the output independent of machine endianness and keeps canonical Huffman
// codes directly comparable as integers.
package bitio

import (
	"errors"
	"fmt"
)

// ErrUnexpectedEOF is returned when a read requests more bits than remain.
var ErrUnexpectedEOF = errors.New("bitio: unexpected end of input")

// ErrBitCount is returned when a bit count outside [0, 64] is requested.
// Decode paths must surface this as data corruption rather than panic: bit
// widths often come straight from untrusted archive bytes.
var ErrBitCount = errors.New("bitio: bit count out of range")

// Writer accumulates bits into an in-memory byte buffer. Bits gather in a
// 64-bit word and leave it a whole byte at a time, so a write costs a shift
// and an OR rather than a step per bit. Invalid writes (bit counts over 64)
// set a sticky error reported by Err; they never panic. Callers must check
// Err before trusting Bytes.
type Writer struct {
	buf  []byte
	base int    // len(buf) when the writer was made: bytes that are not its own
	acc  uint64 // pending bits in the low nAcc bits; higher bits are stale
	nAcc uint   // number of pending bits (0..7 between writes)
	err  error
}

// NewWriter returns an empty bit writer.
func NewWriter() *Writer { return &Writer{} }

// NewAppendWriter returns a bit writer whose output continues buf: Bytes
// returns buf with the written bits appended, so a caller building a larger
// frame needs no second buffer and no copy.
func NewAppendWriter(buf []byte) *Writer { return &Writer{buf: buf, base: len(buf)} }

// WriteBit appends a single bit (any non-zero b writes 1).
func (w *Writer) WriteBit(b int) {
	var v uint64
	if b != 0 {
		v = 1
	}
	w.WriteBits(v, 1)
}

// WriteBits appends the low n bits of v, most significant first; bits of v
// above n are ignored. n must be in [0, 64]; larger counts write nothing and
// set the writer's sticky ErrBitCount error.
func (w *Writer) WriteBits(v uint64, n uint) {
	if n > 64 {
		if w.err == nil {
			w.err = fmt.Errorf("%w: WriteBits n=%d > 64", ErrBitCount, n)
		}
		return
	}
	if n > 56 {
		// At most 7 bits are pending, so 56 more still fit the word.
		w.WriteBits(v>>32, n-32)
		n = 32
	}
	w.acc = w.acc<<n | v&(1<<n-1)
	w.nAcc += n
	for w.nAcc >= 8 {
		w.nAcc -= 8
		w.buf = append(w.buf, byte(w.acc>>w.nAcc))
	}
}

// Err returns the first invalid-write error, or nil. A writer with a
// non-nil Err has dropped at least one WriteBits call; its output must be
// discarded.
func (w *Writer) Err() error { return w.err }

// Len returns the number of whole and partial bits written so far.
func (w *Writer) Len() int { return (len(w.buf)-w.base)*8 + int(w.nAcc) }

// Bytes flushes any partial byte (zero-padded on the right) and returns the
// accumulated buffer. The writer remains usable; subsequent writes continue
// from the flushed state, so call Bytes only once when encoding is done.
func (w *Writer) Bytes() []byte {
	if w.nAcc > 0 {
		w.buf = append(w.buf, byte(w.acc<<(8-w.nAcc)))
		w.acc, w.nAcc = 0, 0
	}
	return w.buf
}

// Reader consumes bits from a byte slice, most-significant-bit first. Bits
// gather in a 64-bit word a byte at a time, as the writer's leave it, so a
// read of bits already buffered is one shift and a mask.
type Reader struct {
	buf  []byte
	pos  int    // index of the next byte to buffer
	acc  uint64 // buffered bits in the low nAcc bits; higher bits are stale
	nAcc uint   // number of buffered bits
}

// NewReader returns a reader over buf. The reader does not copy buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// ReadBit reads one bit.
func (r *Reader) ReadBit() (int, error) {
	v, err := r.ReadBits(1)
	return int(v), err
}

// ReadBits reads n bits into the low bits of the result. n must be in
// [0, 64]; larger counts return ErrBitCount (never panic — n is typically
// decoded from untrusted input) and consume nothing. A read past the end
// returns ErrUnexpectedEOF and consumes what was left.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n > 64 {
		return 0, fmt.Errorf("%w: ReadBits n=%d > 64", ErrBitCount, n)
	}
	if n > 56 {
		// Buffering stops at most 7 bits past n, and the word holds 64.
		hi, err := r.ReadBits(n - 32)
		if err != nil {
			return 0, err
		}
		lo, err := r.ReadBits(32)
		if err != nil {
			return 0, err
		}
		return hi<<32 | lo, nil
	}
	for r.nAcc < n {
		if r.pos == len(r.buf) {
			r.nAcc = 0
			return 0, ErrUnexpectedEOF
		}
		r.acc = r.acc<<8 | uint64(r.buf[r.pos])
		r.pos++
		r.nAcc += 8
	}
	r.nAcc -= n
	return r.acc >> r.nAcc & (1<<n - 1), nil
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return (len(r.buf)-r.pos)*8 + int(r.nAcc) }
