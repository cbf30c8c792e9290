package huffman

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, values []int64) []byte {
	t.Helper()
	buf := Encode(values)
	got, err := Decode(buf)
	if err != nil {
		t.Fatalf("decode: %v (values %v)", err, values)
	}
	if len(values) == 0 {
		if len(got) != 0 {
			t.Fatalf("empty input decoded to %v", got)
		}
		return buf
	}
	if !reflect.DeepEqual(got, values) {
		t.Fatalf("round trip mismatch: got %v want %v", got, values)
	}
	return buf
}

func TestRoundTripBasic(t *testing.T) {
	cases := [][]int64{
		{},
		{5},
		{5, 5, 5, 5, 5},
		{0, 1, 0, 1, 1, 0},
		{-3, 7, -3, -3, 1000000, 7},
		{1, 2, 3, 4, 5, 6, 7, 8},
	}
	for _, c := range cases {
		roundTrip(t, c)
	}
}

func TestSkewedDistributionCompresses(t *testing.T) {
	// 95% zeros: entropy ≈ 0.29 bits/symbol. Huffman floor is 1 bit/symbol.
	rng := rand.New(rand.NewSource(1))
	values := make([]int64, 10000)
	for i := range values {
		if rng.Float64() < 0.05 {
			values[i] = int64(1 + rng.Intn(4))
		}
	}
	buf := roundTrip(t, values)
	// 1 bit/symbol + small header ≈ 1250+ε bytes; plain bytes would be 10000.
	if len(buf) > 1700 {
		t.Fatalf("skewed stream encoded to %d bytes; want ≈1300", len(buf))
	}
}

func TestFrequentSymbolsGetShorterCodes(t *testing.T) {
	syms := []symFreq{{0, 1000}, {1, 100}, {2, 10}, {3, 1}}
	lengths := codeLengths(syms) // sorted by ascending frequency: 3, 2, 1, 0
	if lengths[0] < lengths[1] || lengths[1] < lengths[2] || lengths[2] < lengths[3] {
		t.Fatalf("code lengths not monotone in frequency: %v", lengths)
	}
}

func TestKraftInequality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		freq := make(map[int64]uint64)
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			freq[int64(rng.Intn(100))] = uint64(1 + rng.Intn(1000))
		}
		var syms []symFreq
		for s, f := range freq {
			syms = append(syms, symFreq{s, f})
		}
		lengths := codeLengths(syms)
		sum := 0.0
		for _, l := range lengths {
			sum += 1.0 / float64(uint64(1)<<l)
		}
		// Kraft equality holds for complete Huffman codes (within float error);
		// the single-symbol special case uses length 1, giving sum 0.5.
		return sum <= 1.0+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCanonicalDeterminism(t *testing.T) {
	values := []int64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	a := Encode(values)
	b := Encode(values)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Encode is not deterministic")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300)
		values := make([]int64, n)
		alpha := 1 + rng.Intn(50)
		for i := range values {
			values[i] = int64(rng.Intn(alpha)) - int64(alpha/2)
		}
		got, err := Decode(Encode(values))
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

func TestDecodeCorrupt(t *testing.T) {
	good := Encode([]int64{1, 1, 2, 3, 3, 3})
	cases := [][]byte{
		nil,
		{},
		good[:2],
		good[:len(good)-1],
	}
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("case %d: corrupt input accepted", i)
		}
	}
	// Non-canonical symbol table must be rejected.
	bad := append([]byte{}, good...)
	// Find the symbol section: count varint (1 byte for 6), alpha varint
	// (1 byte for 3), then 3 zigzag symbols. Swap first two symbols.
	bad[2], bad[3] = bad[3], bad[2]
	if _, err := Decode(bad); err == nil {
		t.Error("non-canonical table accepted")
	}
}

func BenchmarkEncodeSkewed(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	values := make([]int64, 1<<14)
	for i := range values {
		if rng.Float64() < 0.1 {
			values[i] = int64(rng.Intn(8))
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(values)
	}
}
