package core

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"testing"
)

func TestSectionWriterReaderRoundTrip(t *testing.T) {
	w := &sectionWriter{}
	w.buf.Write(magic[:])
	w.buf.Write([]byte{archiveVersion, flagHasModel})
	w.chunk([]byte("first"))
	w.buf.Write(binary.AppendUvarint(nil, 300))
	w.chunk(nil)
	w.chunk(bytes.Repeat([]byte{7}, 1000))
	buf := w.finish()

	r, _, flags, err := newSectionReader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if flags != flagHasModel {
		t.Fatalf("flags = %b", flags)
	}
	c1, err := r.chunk()
	if err != nil || string(c1) != "first" {
		t.Fatalf("chunk 1 = %q, %v", c1, err)
	}
	v, err := r.uvarint()
	if err != nil || v != 300 {
		t.Fatalf("uvarint = %d, %v", v, err)
	}
	c2, err := r.chunk()
	if err != nil || len(c2) != 0 {
		t.Fatalf("chunk 2 = %v, %v", c2, err)
	}
	c3, err := r.chunk()
	if err != nil || len(c3) != 1000 {
		t.Fatalf("chunk 3 len = %d, %v", len(c3), err)
	}
	if err := r.done(); err != nil {
		t.Fatal(err)
	}
}

func TestSectionReaderRejects(t *testing.T) {
	w := &sectionWriter{}
	w.buf.Write(magic[:])
	w.buf.Write([]byte{archiveVersion, 0})
	w.chunk([]byte("payload"))
	good := w.finish()

	cases := map[string][]byte{
		"too short": good[:5],
		"bad magic": append([]byte("WXYZ"), good[4:]...),
		"bad version": func() []byte {
			b := append([]byte{}, good...)
			b[4] = 99
			return b
		}(),
		"bad crc": func() []byte {
			b := append([]byte{}, good...)
			b[len(b)-1] ^= 0xFF
			return b
		}(),
		"flipped payload": func() []byte {
			b := append([]byte{}, good...)
			b[8] ^= 0xFF
			return b
		}(),
	}
	for name, c := range cases {
		if _, _, _, err := newSectionReader(c); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Trailing data must fail done().
	r, _, _, err := newSectionReader(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.done(); err == nil {
		t.Error("done() with unread chunk accepted")
	}
}

func TestSectionReaderChunkOverrun(t *testing.T) {
	w := &sectionWriter{}
	w.buf.Write(magic[:])
	w.buf.Write([]byte{archiveVersion, 0})
	w.buf.Write(binary.AppendUvarint(nil, 1<<40)) // declared chunk far larger than archive
	buf := w.finish()
	r, _, _, err := newSectionReader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.chunk(); err == nil {
		t.Fatal("oversized chunk accepted")
	}
}

func TestValidatePerm(t *testing.T) {
	if err := validatePerm([]int{2, 0, 1}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]int{{0, 0}, {0, 2}, {-1, 0}} {
		if err := validatePerm(bad); err == nil {
			t.Errorf("perm %v accepted", bad)
		}
	}
}

func TestGroupedPermStable(t *testing.T) {
	assign := []int{1, 0, 1, 0, 2}
	perm := groupedPerm(assign)
	want := []int{1, 3, 0, 2, 4}
	for i, p := range perm {
		if p != want[i] {
			t.Fatalf("groupedPerm = %v, want %v", perm, want)
		}
	}
}

func TestDecoderSectionRoundTrip(t *testing.T) {
	data := bytes.Repeat([]byte("model weights "), 500)
	z := compressDecoderSection(data)
	if len(z) >= len(data) {
		t.Fatalf("DEFLATE did not shrink repetitive data: %d vs %d", len(z), len(data))
	}
	back, err := inflateDecoderSection(z)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("round trip mismatch")
	}
	// The codec is raw flate, not gzip: a frame with an unknown tag byte must
	// be rejected as corrupt, and the error must say so.
	if _, err := inflateDecoderSection([]byte("not a codec frame")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("garbage classified as %v, want ErrCorrupt", err)
	}
	// A stored frame round-trips even when DEFLATE cannot shrink the payload.
	incompressible := []byte{0x01, 0x9f, 0x3a, 0xc4}
	back, err = inflateDecoderSection(compressDecoderSection(incompressible))
	if err != nil || !bytes.Equal(back, incompressible) {
		t.Fatalf("stored-frame round trip = %v, %v", back, err)
	}
}

func TestDecoderSectionReadsLegacyGzip(t *testing.T) {
	// Archives written before the codec layer gzipped the decoder section;
	// the reader must still sniff and inflate that form.
	data := bytes.Repeat([]byte("legacy decoder bytes "), 100)
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := inflateDecoderSection(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("legacy gzip round trip mismatch")
	}
	// Truncated gzip must classify as corrupt, not panic or succeed.
	if _, err := inflateDecoderSection(buf.Bytes()[:buf.Len()/2]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated gzip classified as %v, want ErrCorrupt", err)
	}
}
