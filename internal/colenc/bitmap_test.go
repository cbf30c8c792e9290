package colenc

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// encodeBitmapRef is the bitmap encoder as writers ran it until they stopped
// offering the encoding, kept as the reference the decoder is tested
// against: each 2^16 block in the cheapest of the array, bitmap and runs
// containers. The stream must hold only 0 and 1.
func encodeBitmapRef(values []int64) []byte {
	out := binary.AppendUvarint(nil, uint64(len(values)))
	nBlocks := (len(values) + blockBits - 1) / blockBits
	out = binary.AppendUvarint(out, uint64(nBlocks))
	for b := 0; b < nBlocks; b++ {
		block := values[b*blockBits : min((b+1)*blockBits, len(values))]
		var ones []uint16
		for i, v := range block {
			if v == 1 {
				ones = append(ones, uint16(i))
			}
		}
		var runs [][2]uint16 // (start, length-1)
		for i := 0; i < len(ones); {
			j := i + 1
			for j < len(ones) && ones[j] == ones[j-1]+1 {
				j++
			}
			runs = append(runs, [2]uint16{ones[i], uint16(j - i - 1)})
			i = j
		}
		out = binary.AppendUvarint(out, uint64(b))
		arraySize, bitmapSize, runsSize := 2*len(ones), (len(block)+7)/8, 4*len(runs)
		switch {
		case runsSize <= arraySize && runsSize <= bitmapSize:
			out = binary.AppendUvarint(append(out, containerRuns), uint64(len(runs)))
			for _, r := range runs {
				out = binary.LittleEndian.AppendUint16(binary.LittleEndian.AppendUint16(out, r[0]), r[1])
			}
		case arraySize <= bitmapSize:
			out = binary.AppendUvarint(append(out, containerArray), uint64(len(ones)))
			for _, p := range ones {
				out = binary.LittleEndian.AppendUint16(out, p)
			}
		default:
			out = binary.AppendUvarint(append(out, containerBitmap), uint64(len(block)))
			bits := make([]byte, bitmapSize)
			for _, p := range ones {
				bits[p/8] |= 1 << (p % 8)
			}
			out = append(out, bits...)
		}
	}
	return out
}

func bitmapRoundTrip(t *testing.T, values []int64) []byte {
	t.Helper()
	buf := encodeBitmapRef(values)
	got, err := DecodeBitmapMax(buf, -1)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(values) == 0 {
		if len(got) != 0 {
			t.Fatal("empty round trip")
		}
		return buf
	}
	if !reflect.DeepEqual(got, values) {
		t.Fatal("round trip mismatch")
	}
	return buf
}

func TestBitmapRoundTripBasic(t *testing.T) {
	cases := [][]int64{
		{},
		{0},
		{1},
		{0, 1, 0, 1, 1, 0},
		make([]int64, 1000),
	}
	all1 := make([]int64, 1000)
	for i := range all1 {
		all1[i] = 1
	}
	cases = append(cases, all1)
	for _, c := range cases {
		bitmapRoundTrip(t, c)
	}
}

func TestBitmapCrossesBlockBoundary(t *testing.T) {
	values := make([]int64, blockBits*2+100)
	for i := range values {
		if i%3 == 0 {
			values[i] = 1
		}
	}
	bitmapRoundTrip(t, values)
}

func TestBitmapContainerSelection(t *testing.T) {
	// Sparse: array container should make it tiny.
	sparse := make([]int64, blockBits)
	sparse[5] = 1
	sparse[77] = 1
	if buf := bitmapRoundTrip(t, sparse); len(buf) > 32 {
		t.Fatalf("sparse block encoded to %d bytes", len(buf))
	}
	// Long runs: run container should make it tiny.
	runs := make([]int64, blockBits)
	for i := 1000; i < 30000; i++ {
		runs[i] = 1
	}
	if buf := bitmapRoundTrip(t, runs); len(buf) > 32 {
		t.Fatalf("run block encoded to %d bytes", len(buf))
	}
	// Irregular dense: bitmap container, ~1 bit per value.
	rng := rand.New(rand.NewSource(1))
	dense := make([]int64, blockBits)
	for i := range dense {
		dense[i] = int64(rng.Intn(2))
	}
	if buf := bitmapRoundTrip(t, dense); len(buf) > blockBits/8+64 {
		t.Fatalf("dense block encoded to %d bytes", len(buf))
	}
}

func TestBitmapDecodeCorrupt(t *testing.T) {
	good := encodeBitmapRef([]int64{0, 1, 1, 0, 1})
	for _, cut := range []int{0, 1, 2, len(good) - 1} {
		if _, err := DecodeBitmapMax(good[:cut], -1); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecodeBitmapMax(append(good, 9), -1); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Wrong block count.
	bad := append([]byte{}, good...)
	bad[1] = 7
	if _, err := DecodeBitmapMax(bad, -1); err == nil {
		t.Error("wrong block count accepted")
	}
	// Container counts no buffer could hold, up to ones that overflow an int
	// when scaled to bytes.
	for _, kind := range []byte{containerArray, containerRuns} {
		for _, cnt := range []uint64{1 << 20, 1<<63 + 1, 1<<64 - 1} {
			buf := binary.AppendUvarint([]byte{5, 1, 0, kind}, cnt)
			if _, err := DecodeBitmapMax(buf, -1); err == nil {
				t.Errorf("container %d declaring %d entries accepted", kind, cnt)
			}
		}
	}
}

func TestQuickBitmapRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(3 * blockBits)
		values := make([]int64, n)
		p := rng.Float64()
		for i := range values {
			if rng.Float64() < p {
				values[i] = 1
			}
		}
		got, err := DecodeBitmapMax(encodeBitmapRef(values), -1)
		if err != nil {
			return false
		}
		if n == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, values)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
