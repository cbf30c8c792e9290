// Package rangecoder implements a carryless byte-oriented range coder
// (Subbotin style) together with adaptive frequency models. It is the
// entropy-coding backend of our Squish baseline, which couples a Bayesian
// network over columns with arithmetic coding — the range coder is the
// practical arithmetic-coder variant.
//
// Cumulative frequency totals must stay below 1<<16; AdaptiveModel enforces
// this by periodic rescaling.
package rangecoder

import (
	"errors"
	"fmt"
)

const (
	top = 1 << 24
	bot = 1 << 16
)

// MaxTotal is the largest cumulative frequency total a model may present to
// the coder.
const MaxTotal = bot - 1

// ErrCorrupt is returned when a decoder reads past its input.
var ErrCorrupt = errors.New("rangecoder: corrupt or truncated input")

// Encoder encodes symbols given (cumFreq, freq, totFreq) triples.
type Encoder struct {
	low  uint32
	rng  uint32
	out  []byte
	done bool
}

// NewEncoder returns a ready encoder.
func NewEncoder() *Encoder {
	return &Encoder{rng: 0xFFFFFFFF}
}

// Encode narrows the current interval to the symbol whose cumulative range
// is [cumFreq, cumFreq+freq) out of totFreq. freq must be non-zero and
// cumFreq+freq ≤ totFreq ≤ MaxTotal.
func (e *Encoder) Encode(cumFreq, freq, totFreq uint32) {
	if e.done {
		panic("rangecoder: Encode after Bytes")
	}
	if freq == 0 || cumFreq+freq > totFreq || totFreq > MaxTotal {
		panic(fmt.Sprintf("rangecoder: invalid triple cum=%d freq=%d tot=%d", cumFreq, freq, totFreq))
	}
	r := e.rng / totFreq
	e.low += cumFreq * r
	e.rng = freq * r
	for {
		if (e.low ^ (e.low + e.rng)) >= top {
			if e.rng >= bot {
				break
			}
			e.rng = -e.low & (bot - 1)
		}
		e.out = append(e.out, byte(e.low>>24))
		e.low <<= 8
		e.rng <<= 8
	}
}

// Bytes flushes the coder state and returns the encoded buffer. The encoder
// cannot be used afterwards.
func (e *Encoder) Bytes() []byte {
	if !e.done {
		for i := 0; i < 4; i++ {
			e.out = append(e.out, byte(e.low>>24))
			e.low <<= 8
		}
		e.done = true
	}
	return e.out
}

// Decoder mirrors Encoder over a byte buffer.
type Decoder struct {
	low  uint32
	rng  uint32
	code uint32
	r    uint32 // rng / totFreq, from DecodeFreq for the Update after it
	buf  []byte
	pos  int
}

// NewDecoder returns a decoder over buf (not copied).
func NewDecoder(buf []byte) *Decoder {
	d := &Decoder{rng: 0xFFFFFFFF, buf: buf}
	for i := 0; i < 4; i++ {
		d.code = d.code<<8 | d.next()
	}
	return d
}

// byteAt returns buf[pos], or zero padding past the end. The trailing-zero
// convention matches the encoder's 4-byte flush; genuinely corrupt streams
// are caught by the callers' symbol-count bookkeeping.
func byteAt(buf []byte, pos int) uint32 {
	if pos < len(buf) {
		return uint32(buf[pos])
	}
	return 0
}

// next returns the next input byte.
func (d *Decoder) next() uint32 {
	d.pos++
	return byteAt(d.buf, d.pos-1)
}

// DecodeFreq returns the scaled cumulative frequency of the next symbol,
// below totFreq; the caller locates the symbol whose [cumFreq, cumFreq+freq)
// contains it and then calls Update with that pair.
func (d *Decoder) DecodeFreq(totFreq uint32) uint32 {
	if totFreq == 0 || totFreq > MaxTotal {
		panic(fmt.Sprintf("rangecoder: invalid totFreq %d", totFreq))
	}
	d.r = d.rng / totFreq
	f := (d.code - d.low) / d.r
	if f >= totFreq {
		f = totFreq - 1
	}
	return f
}

// Update consumes the symbol identified after DecodeFreq, out of the total
// DecodeFreq was given: the division by it is DecodeFreq's, kept.
func (d *Decoder) Update(cumFreq, freq uint32) {
	d.low += cumFreq * d.r
	d.rng = freq * d.r
	for {
		if (d.low ^ (d.low + d.rng)) >= top {
			if d.rng >= bot {
				break
			}
			d.rng = -d.low & (bot - 1)
		}
		d.code = d.code<<8 | d.next()
		d.low <<= 8
		d.rng <<= 8
	}
}

// Overrun reports whether the decoder has consumed more bytes than the
// buffer held (beyond the encoder's implicit zero padding). Useful as a
// cheap corruption check after decoding a known symbol count.
func (d *Decoder) Overrun() bool { return d.pos > len(d.buf)+4 }
