package colenc

import (
	"encoding/binary"
	"errors"
	"testing"

	"deepsqueeze/internal/huffman"
)

// TestMaxCountRejectsHugeDeclaredCounts covers the decode paths whose
// declared count is not bounded by the buffer length: a huge count must be
// rejected by the Max variants before any allocation happens.
func TestMaxCountRejectsHugeDeclaredCounts(t *testing.T) {
	const huge = uint64(1) << 60

	// FOR, width 0: all-equal values pack into zero bits, so the packed
	// section is empty no matter the count.
	forBuf := binary.AppendUvarint(nil, huge)
	forBuf = binary.AppendUvarint(forBuf, Zigzag(7))
	forBuf = append(forBuf, 0) // width 0
	if _, err := DecodeFORMax(forBuf, 1024); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeFORMax(width=0, n=2^60) = %v, want ErrCorrupt", err)
	}

	// RLE: one run pair legally covers the whole declared count.
	rleBuf := binary.AppendUvarint(nil, huge)
	rleBuf = binary.AppendUvarint(rleBuf, Zigzag(5))
	rleBuf = binary.AppendUvarint(rleBuf, huge)
	if _, err := DecodeRLEMax(rleBuf, 1024); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeRLEMax(n=2^60) = %v, want ErrCorrupt", err)
	}

	// Bitmap: count drives the output allocation directly.
	bmBuf := binary.AppendUvarint(nil, huge)
	bmBuf = binary.AppendUvarint(bmBuf, (huge+blockBits-1)/blockBits)
	if _, err := DecodeBitmapMax(bmBuf, 1024); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeBitmapMax(n=2^60) = %v, want ErrCorrupt", err)
	}

	// The dispatcher threads the bound through to each encoding.
	if _, err := DecodeBestMax(append([]byte{byte(EncRLE)}, rleBuf...), 1024); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeBestMax(rle, n=2^60) = %v, want ErrCorrupt", err)
	}
}

// TestBitmapBlockFramingBound: even without an external bound, a declared
// block count the buffer cannot physically hold is rejected before the
// output allocation.
func TestBitmapBlockFramingBound(t *testing.T) {
	const n = uint64(1) << 40
	buf := binary.AppendUvarint(nil, n)
	buf = binary.AppendUvarint(buf, (n+blockBits-1)/blockBits)
	if _, err := DecodeBitmapMax(buf, -1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeBitmap(%d blocks, empty body) = %v, want ErrCorrupt", n/blockBits, err)
	}
}

// TestFORWidthOverflowGuard: a count chosen so n*width wraps around uint64
// must not slip past the packed-section length check.
func TestFORWidthOverflowGuard(t *testing.T) {
	n := (uint64(1)<<61 + 1) // n*8 bits overflows; (n*64+7)/8 wraps small
	buf := binary.AppendUvarint(nil, n)
	buf = binary.AppendUvarint(buf, Zigzag(0))
	buf = append(buf, 64) // width 64
	buf = append(buf, 1)  // 1-byte "packed section"
	if _, err := DecodeFOR(buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeFOR(overflowing n*width) = %v, want ErrCorrupt", err)
	}
}

// TestMaxCountAcceptsExactBound: max equal to the true count round-trips.
func TestMaxCountAcceptsExactBound(t *testing.T) {
	values := []int64{3, 3, 3, 3, 3, 9, 9, 1}
	got, err := DecodeBestMax(EncodeBest(values), len(values))
	if err != nil {
		t.Fatalf("DecodeBestMax at exact bound: %v", err)
	}
	if len(got) != len(values) {
		t.Fatalf("decoded %d values, want %d", len(got), len(values))
	}
	for i, v := range values {
		if got[i] != v {
			t.Fatalf("value %d = %d, want %d", i, got[i], v)
		}
	}
}

// TestHuffmanCountBitstreamBound: huffman's declared count is bounded by the
// bitstream length (≥1 bit per value) with no external max needed.
func TestHuffmanCountBitstreamBound(t *testing.T) {
	buf := binary.AppendUvarint(nil, uint64(1)<<50) // count
	buf = binary.AppendUvarint(buf, 1)              // alphabet size
	buf = binary.AppendUvarint(buf, 0)              // symbol 0
	buf = append(buf, 1)                            // code length 1
	buf = append(buf, 0xFF)                         // 8 bits of stream
	if _, err := huffman.Decode(buf); !errors.Is(err, huffman.ErrCorrupt) {
		t.Fatalf("huffman.Decode(n=2^50, 1-byte stream) = %v, want ErrCorrupt", err)
	}
}
