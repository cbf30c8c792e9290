package colenc

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestZigzag(t *testing.T) {
	cases := map[int64]uint64{0: 0, -1: 1, 1: 2, -2: 3, 2: 4, math.MaxInt64: math.MaxUint64 - 1, math.MinInt64: math.MaxUint64}
	for v, want := range cases {
		if got := Zigzag(v); got != want {
			t.Errorf("Zigzag(%d) = %d, want %d", v, got, want)
		}
		if back := Unzigzag(Zigzag(v)); back != v {
			t.Errorf("Unzigzag(Zigzag(%d)) = %d", v, back)
		}
	}
}

func roundTripAll(t *testing.T, values []int64) {
	t.Helper()
	type codec struct {
		name string
		enc  func([]int64) []byte
		dec  func([]byte) ([]int64, error)
	}
	codecs := []codec{
		{"varint", EncodeVarints, DecodeVarints},
		{"delta", EncodeDelta, DecodeDelta},
		{"for", EncodeFOR, DecodeFOR},
		{"best", EncodeBest, DecodeBest},
	}
	for _, c := range codecs {
		buf := c.enc(values)
		got, err := c.dec(buf)
		if err != nil {
			t.Fatalf("%s: decode error: %v (values %v)", c.name, err, values)
		}
		if len(got) == 0 && len(values) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, values) {
			t.Fatalf("%s: round trip mismatch: got %v want %v", c.name, got, values)
		}
	}
}

func TestRoundTripFixedCases(t *testing.T) {
	cases := [][]int64{
		{},
		{0},
		{42},
		{-7, -7, -7, -7},
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		{0, 0, 0, 1, 0, 0, 0, 0, 2, 0},
		{math.MaxInt64, math.MinInt64, 0, -1, 1},
		{100, 100, 100, 200, 200, 300},
	}
	for _, c := range cases {
		roundTripAll(t, c)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(500)
		values := make([]int64, n)
		switch rng.Intn(4) {
		case 0: // small alphabet
			for i := range values {
				values[i] = int64(rng.Intn(5)) - 2
			}
		case 1: // sorted
			cur := int64(0)
			for i := range values {
				cur += int64(rng.Intn(10))
				values[i] = cur
			}
		case 2: // wild
			for i := range values {
				values[i] = int64(rng.Uint64())
			}
		case 3: // runs
			i := 0
			for i < n {
				v := int64(rng.Intn(3))
				run := 1 + rng.Intn(20)
				for k := 0; k < run && i < n; k++ {
					values[i] = v
					i++
				}
			}
		}
		got, err := DecodeBest(EncodeBest(values))
		if err != nil {
			return false
		}
		if n == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, values)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// An all-equal stream packs at width 0: FOR's header and nothing else. (Runs
// over wide values are the codec layer's to shrink; see internal/codec.)
func TestConstantStreamPicksFOR(t *testing.T) {
	buf := EncodeBest(make([]int64, 10000))
	if enc := Encoding(buf[0]); enc != EncFOR || len(buf) > 8 {
		t.Fatalf("10000 zeros: %v encoding of %d bytes, want for in a handful", enc, len(buf))
	}
}

func TestDeltaPicksSorted(t *testing.T) {
	values := make([]int64, 5000)
	for i := range values {
		values[i] = int64(1000000 + i)
	}
	buf := EncodeBest(values)
	// Delta, FOR, or Huffman-of-deltas could win; verify it is far smaller
	// than plain varints and that delta specifically is compact.
	if plain := EncodeVarints(values); len(buf) > len(plain)/2 {
		t.Fatalf("sorted sequence: best %d bytes vs plain %d", len(buf), len(plain))
	}
	if d := EncodeDelta(values); len(d) > 2*5000 {
		t.Fatalf("delta of consecutive ints = %d bytes", len(d))
	}
}

func TestFORPicksSmallRange(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	values := make([]int64, 4096)
	for i := range values {
		values[i] = 1_000_000_000 + int64(rng.Intn(16)) // 4-bit range, huge offset
	}
	buf := EncodeFOR(values)
	// ~4 bits/value plus header.
	if len(buf) > 4096/2+32 {
		t.Fatalf("FOR on 4-bit range = %d bytes", len(buf))
	}
}

func TestDecodeCorruptInputs(t *testing.T) {
	good := EncodeBest([]int64{1, 2, 3, 4, 5})
	cases := [][]byte{
		nil,
		{},
		{99},                  // unknown tag
		good[:len(good)-1],    // truncated
		append(good, 0, 0, 0), // trailing garbage
	}
	for i, c := range cases {
		if _, err := DecodeBest(c); err == nil {
			t.Errorf("case %d: corrupt input decoded without error", i)
		}
	}
	// Count larger than buffer.
	if _, err := DecodeVarints([]byte{0xFF, 0xFF, 0xFF, 0x7F}); err == nil {
		t.Error("oversized count accepted")
	}
	// RLE run overflowing declared count.
	if _, err := DecodeRLEMax(append(append([]byte{2}, 0), 10), -1); err == nil {
		t.Error("RLE run overflow accepted")
	}
}

func TestEncodingString(t *testing.T) {
	for enc, want := range map[Encoding]string{
		EncVarint: "varint", EncDelta: "delta", EncRLE: "rle",
		EncFOR: "for", EncHuffman: "huffman", EncBitmap: "bitmap",
		Encoding(42): "encoding(42)",
	} {
		if got := enc.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", enc, got, want)
		}
	}
}

func BenchmarkEncodeBestRuns(b *testing.B) {
	values := make([]int64, 1<<14)
	for i := range values {
		values[i] = int64(i / 512)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeBest(values)
	}
}
