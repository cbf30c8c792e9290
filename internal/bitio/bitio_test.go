package bitio

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSingleBitsRoundTrip(t *testing.T) {
	w := NewWriter()
	bits := []int{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1} // 11 bits: crosses a byte
	for _, b := range bits {
		w.WriteBit(b)
	}
	if got := w.Len(); got != len(bits) {
		t.Fatalf("Len = %d, want %d", got, len(bits))
	}
	r := NewReader(w.Bytes())
	for i, want := range bits {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("ReadBit %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit %d = %d, want %d", i, got, want)
		}
	}
}

func TestWriteBitsMSBFirst(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0b101, 3)
	w.WriteBits(0b11111, 5)
	got := w.Bytes()
	if len(got) != 1 || got[0] != 0b10111111 {
		t.Fatalf("Bytes = %08b, want 10111111", got)
	}
}

func TestZeroWidthWrite(t *testing.T) {
	w := NewWriter()
	w.WriteBits(123, 0)
	if w.Len() != 0 {
		t.Fatal("zero-width write must emit nothing")
	}
	r := NewReader(w.Bytes())
	v, err := r.ReadBits(0)
	if err != nil || v != 0 {
		t.Fatalf("zero-width read = %d, %v", v, err)
	}
}

func TestReadPastEnd(t *testing.T) {
	r := NewReader([]byte{0xFF})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatalf("first byte: %v", err)
	}
	if _, err := r.ReadBit(); err != ErrUnexpectedEOF {
		t.Fatalf("expected ErrUnexpectedEOF, got %v", err)
	}
}

func TestWriteBitsOverwideSetsStickyError(t *testing.T) {
	w := NewWriter()
	w.WriteBits(1, 3)
	w.WriteBits(0, 65)
	if err := w.Err(); !errors.Is(err, ErrBitCount) {
		t.Fatalf("Err = %v, want ErrBitCount", err)
	}
	// The invalid write is dropped; earlier valid bits are untouched.
	if w.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (overwide write must emit nothing)", w.Len())
	}
	// Sticky: the first error survives later writes, valid or not.
	first := w.Err()
	w.WriteBits(0, 70)
	w.WriteBits(1, 1)
	if w.Err() != first {
		t.Fatalf("Err changed from %v to %v", first, w.Err())
	}
}

func TestWriterErrNilOnValidWrites(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0xFF, 8)
	w.WriteBits(0, 64)
	if err := w.Err(); err != nil {
		t.Fatalf("Err = %v, want nil", err)
	}
}

func TestReadBitsOverwideReturnsError(t *testing.T) {
	r := NewReader([]byte{0xAB, 0xCD, 0xEF})
	if _, err := r.ReadBits(65); !errors.Is(err, ErrBitCount) {
		t.Fatalf("ReadBits(65) err = %v, want ErrBitCount", err)
	}
	// The failed read must not consume input.
	got, err := r.ReadBits(8)
	if err != nil || got != 0xAB {
		t.Fatalf("ReadBits(8) after failed read = %x, %v; want ab", got, err)
	}
}

func TestRemaining(t *testing.T) {
	r := NewReader([]byte{0, 0})
	if r.Remaining() != 16 {
		t.Fatalf("Remaining = %d", r.Remaining())
	}
	r.ReadBits(5)
	if r.Remaining() != 11 {
		t.Fatalf("Remaining after 5 = %d", r.Remaining())
	}
}

func TestFull64BitValue(t *testing.T) {
	w := NewWriter()
	const v = 0xDEADBEEFCAFEBABE
	w.WriteBits(v, 64)
	r := NewReader(w.Bytes())
	got, err := r.ReadBits(64)
	if err != nil || got != v {
		t.Fatalf("ReadBits(64) = %x, %v", got, err)
	}
}

// Property: any sequence of (value, width) writes reads back identically.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		type item struct {
			v uint64
			w uint
		}
		items := make([]item, n)
		w := NewWriter()
		for i := range items {
			width := uint(1 + rng.Intn(64))
			v := rng.Uint64()
			if width < 64 {
				v &= (1 << width) - 1
			}
			items[i] = item{v, width}
			w.WriteBits(v, width)
		}
		r := NewReader(w.Bytes())
		for _, it := range items {
			got, err := r.ReadBits(it.w)
			if err != nil || got != it.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// refWriter is the bit-at-a-time writer Writer replaced, kept as the
// reference its output must match bit for bit.
type refWriter struct {
	buf  []byte
	cur  byte
	nCur uint
	err  error
}

func (w *refWriter) WriteBit(b int) {
	w.cur <<= 1
	if b != 0 {
		w.cur |= 1
	}
	w.nCur++
	if w.nCur == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur, w.nCur = 0, 0
	}
}

func (w *refWriter) WriteBits(v uint64, n uint) {
	if n > 64 {
		if w.err == nil {
			w.err = ErrBitCount
		}
		return
	}
	for i := int(n) - 1; i >= 0; i-- {
		w.WriteBit(int((v >> uint(i)) & 1))
	}
}

func (w *refWriter) Len() int { return len(w.buf)*8 + int(w.nCur) }

func (w *refWriter) Bytes() []byte {
	if w.nCur > 0 {
		w.buf = append(w.buf, w.cur<<(8-w.nCur))
		w.cur, w.nCur = 0, 0
	}
	return w.buf
}

// edgeWidths are the widths around the word writer's byte and split
// boundaries, plus the overwide count that must set the sticky error.
var edgeWidths = []uint{0, 1, 7, 8, 56, 57, 63, 64, 65}

// replayOps drives w and ref through the same operations decoded from ops,
// three bytes at a time: an opcode byte choosing a write width (or a single
// WriteBit, a Len check, or a mid-stream Bytes), then two bytes seeding the
// value, whose bits above the width are garbage the writers must ignore. It
// reports the first disagreement.
func replayOps(t *testing.T, ops []byte, w *Writer, ref *refWriter) {
	t.Helper()
	for i := 0; i+3 <= len(ops); i += 3 {
		op, seed := ops[i], uint64(ops[i+1])<<8|uint64(ops[i+2])
		v := seed * 0x9E3779B97F4A7C15 // spread the seed over all 64 bits
		switch {
		case op < 128:
			n := uint(op % 66)
			if op%4 == 0 {
				n = edgeWidths[int(op/4)%len(edgeWidths)]
			}
			w.WriteBits(v, n)
			ref.WriteBits(v, n)
		case op < 192:
			w.WriteBit(int(seed % 3))
			ref.WriteBit(int(seed % 3))
		case op < 240:
			if w.Len() != ref.Len() {
				t.Fatalf("op %d: Len = %d, reference %d", i/3, w.Len(), ref.Len())
			}
		default:
			if got, want := w.Bytes(), ref.Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("op %d: mid-stream Bytes = %x, reference %x", i/3, got, want)
			}
		}
		if (w.Err() == nil) != (ref.err == nil) {
			t.Fatalf("op %d: Err = %v, reference %v", i/3, w.Err(), ref.err)
		}
	}
	if w.Len() != ref.Len() {
		t.Fatalf("final Len = %d, reference %d", w.Len(), ref.Len())
	}
	if got, want := w.Bytes(), ref.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("Bytes = %x, reference %x", got, want)
	}
	if w.Err() != nil && !errors.Is(w.Err(), ErrBitCount) {
		t.Fatalf("Err = %v, want ErrBitCount", w.Err())
	}
}

// The word writer is the bit-at-a-time writer, bit for bit: every edge width
// with garbage above it, interleaved single bits, Len checks and mid-stream
// flushes, over random operation sequences.
func TestWriterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 500; trial++ {
		ops := make([]byte, 3*(1+rng.Intn(300)))
		rng.Read(ops)
		replayOps(t, ops, NewWriter(), &refWriter{})
	}
	// Every edge width after every pending-bit count 0..7, each followed by a
	// full word so the split's low half lands on every alignment.
	for pending := uint(0); pending < 8; pending++ {
		for _, n := range edgeWidths {
			w, ref := NewWriter(), &refWriter{}
			w.WriteBits(^uint64(0), pending)
			ref.WriteBits(^uint64(0), pending)
			w.WriteBits(0xA5A5_5A5A_F00F_0FF0, n)
			ref.WriteBits(0xA5A5_5A5A_F00F_0FF0, n)
			w.WriteBits(0x0123_4567_89AB_CDEF, 64)
			ref.WriteBits(0x0123_4567_89AB_CDEF, 64)
			if w.Len() != ref.Len() || !bytes.Equal(w.Bytes(), ref.Bytes()) {
				t.Fatalf("pending %d, width %d: writer and reference disagree", pending, n)
			}
		}
	}
}

// An append writer continues the caller's bytes: they are kept, are not
// counted by Len, and the bits follow them exactly as a fresh writer's would.
func TestAppendWriterContinuesBuffer(t *testing.T) {
	prefix := []byte{0xDE, 0xAD}
	w, fresh := NewAppendWriter(append([]byte(nil), prefix...)), NewWriter()
	for _, x := range []*Writer{w, fresh} {
		x.WriteBits(0b101, 3)
		x.WriteBits(0xFFFF_FFFF_FFFF, 61)
		x.WriteBit(1)
	}
	if w.Len() != fresh.Len() {
		t.Fatalf("Len = %d, want %d", w.Len(), fresh.Len())
	}
	if got, want := w.Bytes(), append(prefix, fresh.Bytes()...); !bytes.Equal(got, want) {
		t.Fatalf("Bytes = %x, want %x", got, want)
	}
}

func FuzzWriterMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 4, 0xFF, 0xFF, 200, 0, 0, 28, 7, 7, 250, 0, 0, 32, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		replayOps(t, ops, NewWriter(), &refWriter{})
	})
}

// refReader is the bit-at-a-time reader Reader replaced, kept as the
// reference its values, errors and Remaining must match.
type refReader struct {
	buf []byte
	pos int
	cur byte
	n   uint
}

func (r *refReader) ReadBit() (int, error) {
	if r.n == 0 {
		if r.pos >= len(r.buf) {
			return 0, ErrUnexpectedEOF
		}
		r.cur, r.n = r.buf[r.pos], 8
		r.pos++
	}
	bit := int(r.cur >> 7)
	r.cur <<= 1
	r.n--
	return bit, nil
}

func (r *refReader) ReadBits(n uint) (uint64, error) {
	if n > 64 {
		return 0, ErrBitCount
	}
	var v uint64
	for i := uint(0); i < n; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	return v, nil
}

func (r *refReader) Remaining() int { return (len(r.buf)-r.pos)*8 + int(r.n) }

// replayReads reads buf through Reader and the reference with one width per
// byte of widths — 0..70, with 71 a ReadBit — and reports the first read
// whose value, error or Remaining differ.
func replayReads(t *testing.T, buf, widths []byte) {
	t.Helper()
	r, ref := NewReader(buf), &refReader{buf: buf}
	for i, w := range widths {
		var got, want uint64
		var err, refErr error
		if n := uint(w % 72); n == 71 {
			b, e := r.ReadBit()
			rb, re := ref.ReadBit()
			got, err, want, refErr = uint64(b), e, uint64(rb), re
		} else {
			got, err = r.ReadBits(n)
			want, refErr = ref.ReadBits(n)
		}
		if got != want || errClass(err) != errClass(refErr) || r.Remaining() != ref.Remaining() {
			t.Fatalf("read %d (width byte %d): %x, %v, %d remaining; reference %x, %v, %d",
				i, w, got, err, r.Remaining(), want, refErr, ref.Remaining())
		}
	}
}

// errClass names an error by the sentinel it wraps.
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, ErrUnexpectedEOF):
		return "eof"
	case errors.Is(err, ErrBitCount):
		return "bitcount"
	}
	return err.Error()
}

// The word reader is the bit-at-a-time reader, read for read: random buffers
// and width sequences that run past the end, and every width 0..70 after
// every buffered-bit count 0..7, followed by a full word.
func TestReaderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 500; trial++ {
		buf, widths := make([]byte, rng.Intn(40)), make([]byte, rng.Intn(60))
		rng.Read(buf)
		rng.Read(widths)
		replayReads(t, buf, widths)
	}
	buf := make([]byte, 24)
	rng.Read(buf)
	for pending := byte(0); pending < 8; pending++ {
		for w := byte(0); w <= 71; w++ {
			replayReads(t, buf, []byte{pending, w, 64, 64})
		}
	}
}

func FuzzReaderMatchesReference(f *testing.F) {
	f.Add([]byte{}, []byte{1, 0, 64})
	f.Add([]byte{0xDE, 0xAD, 0xBE, 0xEF, 0xCA, 0xFE, 0xBA, 0xBE, 0x01}, []byte{3, 57, 71, 64, 70, 8})
	f.Fuzz(replayReads)
}
