package colfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"

	"deepsqueeze/internal/codec"
	"deepsqueeze/internal/colenc"
	"deepsqueeze/internal/dataset"
)

// TestDeflateValidLevelStillCompresses guards the refactor: compressible
// input at a valid level keeps the DEFLATE form.
func TestDeflateValidLevelStillCompresses(t *testing.T) {
	payload := bytes.Repeat([]byte("abcd"), 256)
	got := Deflate(payload)
	if got[0] != 1 {
		t.Fatalf("compressible payload should keep DEFLATE form, got tag %d", got[0])
	}
	out, err := Inflate(got)
	if err != nil || !bytes.Equal(out, payload) {
		t.Fatalf("round-trip failed: %v", err)
	}
}

// isCorrupt reports whether err is a corruption error from this package or
// from the colenc layer it delegates to (the Max bound can trip in either).
func isCorrupt(err error) bool {
	return errors.Is(err, ErrCorrupt) || errors.Is(err, colenc.ErrCorrupt)
}

// TestUnpackMaxRejectsOversizedCounts covers each typed unpacker's
// expected-count bound.
func TestUnpackMaxRejectsOversizedCounts(t *testing.T) {
	strs := PackStrings([]string{"a", "b", "c", "d"})
	if _, err := UnpackStringsMax(strs, 2); !isCorrupt(err) {
		t.Fatalf("UnpackStringsMax(4 values, max 2) = %v, want corrupt error", err)
	}
	if got, err := UnpackStringsMax(strs, 4); err != nil || len(got) != 4 {
		t.Fatalf("UnpackStringsMax at exact bound = %d values, %v", len(got), err)
	}

	floats := PackFloats([]float64{1.5, 2.5, 3.5, 4.5, 5.5})
	if _, err := UnpackFloatsMax(floats, 2); !isCorrupt(err) {
		t.Fatalf("UnpackFloatsMax(5 values, max 2) = %v, want corrupt error", err)
	}
	if got, err := UnpackFloatsMax(floats, 5); err != nil || len(got) != 5 {
		t.Fatalf("UnpackFloatsMax at exact bound = %d values, %v", len(got), err)
	}
}

// TestXORFloatCountBounds: the XOR layout's declared count is bounded both
// by the bitstream length and by the caller's max, before allocation.
func TestXORFloatCountBounds(t *testing.T) {
	// A crafted chunk declaring 2^50 values with an 8-byte body.
	body := binary.AppendUvarint(nil, uint64(1)<<50)
	body = binary.LittleEndian.AppendUint64(body, math.Float64bits(1.0))
	if _, err := unpackFloatsXOR(body, -1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unpackFloatsXOR(n=2^50, empty stream) = %v, want ErrCorrupt", err)
	}

	// A genuine XOR chunk hits the max bound.
	vals := []float64{1.0, 1.0, 1.0, 2.0, 2.0, 4.0}
	packed := packFloatsXOR(vals)
	if _, err := unpackFloatsXOR(packed[1:], 3); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unpackFloatsXOR(6 values, max 3) = %v, want ErrCorrupt", err)
	}
	got, err := unpackFloatsXOR(packed[1:], len(vals))
	if err != nil || len(got) != len(vals) {
		t.Fatalf("unpackFloatsXOR at exact bound = %d values, %v", len(got), err)
	}
}

// TestInflateBombCap: a chunk inflating past codec.MaxInflatedBytes is rejected
// instead of exhausting memory. Built by deflating all-zero input, whose
// compressed form is tiny relative to its expansion. One goroutine deflating
// and inflating that much is many times slower instrumented, with nothing to
// race: under the race detector it skips, and check.sh runs it uninstrumented.
func TestInflateBombCap(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates codec.MaxInflatedBytes once")
	}
	if raceEnabled {
		t.Skip("single-goroutine sweep; runs uninstrumented (see scripts/check.sh)")
	}
	payload := make([]byte, codec.MaxInflatedBytes+1)
	chunk := Deflate(payload)
	if chunk[0] != 1 {
		t.Fatal("zero payload should have taken the DEFLATE form")
	}
	if _, err := Inflate(chunk); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Inflate(bomb) = %v, want ErrCorrupt", err)
	}
}

// craftFile builds a parquet-lite file declaring rows, with one column per
// chunk (numeric, named c0, c1, …) and a valid checksum: the checksum covers
// the chunks only, so the declared row count is whatever the writer says.
func craftFile(rows uint64, chunks ...[]byte) []byte {
	out := append(magic[:], version)
	out = binary.AppendUvarint(out, rows)
	out = binary.AppendUvarint(out, uint64(len(chunks)))
	crc := crc32.NewIEEE()
	for i, c := range chunks {
		out = binary.AppendUvarint(out, 2)
		out = append(out, 'c', byte('0'+i), byte(dataset.Numeric))
		out = binary.AppendUvarint(out, uint64(len(c)))
		out = append(out, c...)
		crc.Write(c)
	}
	return binary.LittleEndian.AppendUint32(out, crc.Sum32())
}

// TestReadBoundsDeclaredRows: Read never sizes anything by the declared row
// count. A 24-byte file declaring 2^62 or 2^40 rows over an empty chunk used
// to panic in makeslice or exhaust memory before looking at the chunk; a
// count beyond int, or one its column does not hold, is corrupt; and a table
// without columns, which has nothing to allocate, keeps its row count.
func TestReadBoundsDeclaredRows(t *testing.T) {
	three := PackFloats([]float64{1, 2, 3})
	for _, c := range []struct {
		name string
		file []byte
	}{
		{"2^62 rows, empty chunk", craftFile(1<<62, nil)},
		{"2^40 rows, empty chunk", craftFile(1<<40, nil)},
		{"2^40 rows, three values", craftFile(1<<40, three)},
		{"2^64-1 rows, three values", craftFile(math.MaxUint64, three)},
		{"2^64-1 rows, no columns", craftFile(math.MaxUint64)},
	} {
		if _, err := Read(bytes.NewReader(c.file)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Read = %v, want ErrCorrupt", c.name, err)
		}
	}
	got, err := Read(bytes.NewReader(craftFile(3, three)))
	if err != nil || got.NumRows() != 3 {
		t.Fatalf("three declared rows over three values: %v", err)
	}
	got, err = Read(bytes.NewReader(craftFile(1 << 62)))
	if err != nil || got.NumRows() != 1<<62 || got.Schema.NumColumns() != 0 {
		t.Fatalf("2^62 rows without columns: %v", err)
	}
}
