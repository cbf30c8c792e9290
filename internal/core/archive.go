package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// ErrCorrupt is returned when an archive fails validation.
var ErrCorrupt = errors.New("core: corrupt archive")

// sectionWriter accumulates a segment body's length-prefixed sections,
// reporting each one's size for the Fig. 6 breakdown, and seals it with the
// segment checksum.
type sectionWriter struct {
	buf bytes.Buffer
}

func (w *sectionWriter) chunk(b []byte) int64 {
	var lp []byte
	lp = binary.AppendUvarint(lp, uint64(len(b)))
	w.buf.Write(lp)
	w.buf.Write(b)
	return int64(len(lp) + len(b))
}

func (w *sectionWriter) finish() []byte {
	sum := crc32.ChecksumIEEE(w.buf.Bytes())
	var f [4]byte
	binary.LittleEndian.PutUint32(f[:], sum)
	w.buf.Write(f[:])
	return w.buf.Bytes()
}

// sectionReader parses the same layout with bounds checking.
type sectionReader struct {
	buf []byte
	pos int
}

func (r *sectionReader) uvarint() (uint64, error) {
	v, sz := binary.Uvarint(r.buf[r.pos:])
	if sz <= 0 {
		return 0, fmt.Errorf("%w: truncated varint", ErrCorrupt)
	}
	r.pos += sz
	return v, nil
}

// byte consumes one raw byte (the kind tag before a v2 top-level chunk).
func (r *sectionReader) byte() (byte, error) {
	if r.pos >= len(r.buf) {
		return 0, fmt.Errorf("%w: truncated chunk kind", ErrCorrupt)
	}
	b := r.buf[r.pos]
	r.pos++
	return b, nil
}

func (r *sectionReader) chunk() ([]byte, error) {
	l, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if uint64(len(r.buf)-r.pos) < l {
		return nil, fmt.Errorf("%w: chunk overruns archive", ErrCorrupt)
	}
	out := r.buf[r.pos : r.pos+int(l)]
	r.pos += int(l)
	return out, nil
}

// skip advances past the next chunk without retaining it, returning the
// chunk's payload length. Projection uses it to walk over sections whose
// contents the caller does not need.
func (r *sectionReader) skip() (int64, error) {
	l, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if uint64(len(r.buf)-r.pos) < l {
		return 0, fmt.Errorf("%w: chunk overruns archive", ErrCorrupt)
	}
	r.pos += int(l)
	return int64(l), nil
}

func (r *sectionReader) done() error {
	if r.pos != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.buf)-r.pos)
	}
	return nil
}

// rowSpan is one row group's half-open original-row interval
// [start, start+count).
type rowSpan struct {
	start, count int
}

// rowGroupSpans partitions [0, rows) into fixed-size spans of groupSize rows
// (the last span may be shorter). An empty table still gets one empty span so
// every archive has at least one segment.
func rowGroupSpans(rows, groupSize int) []rowSpan {
	if rows <= 0 {
		return []rowSpan{{0, 0}}
	}
	spans := make([]rowSpan, 0, (rows+groupSize-1)/groupSize)
	for start := 0; start < rows; start += groupSize {
		count := groupSize
		if start+count > rows {
			count = rows - start
		}
		spans = append(spans, rowSpan{start, count})
	}
	return spans
}
