package codec

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"deepsqueeze/internal/colenc"
)

// refHasRepeat is the repeat test by the book: every minMatch-byte sequence
// of b in a map, compared whole.
func refHasRepeat(b []byte) bool {
	seen := map[string]bool{}
	for i := 0; i+minMatch <= len(b); i++ {
		if seen[string(b[i:i+minMatch])] {
			return true
		}
		seen[string(b[i:i+minMatch])] = true
	}
	return false
}

// deBruijn returns the order-n de Bruijn sequence over k symbols, unrolled:
// every n-byte sequence over the alphabet occurs exactly once, so it is the
// longest string over k symbols without a repeat.
func deBruijn(k, n int) []byte {
	var out []byte
	a := make([]byte, k*n)
	var db func(t, p int)
	db = func(t, p int) {
		if t > n {
			if n%p == 0 {
				out = append(out, a[1:p+1]...)
			}
			return
		}
		a[t] = a[t-p]
		db(t+1, p)
		for j := a[t-p] + 1; int(j) < k; j++ {
			a[t] = j
			db(t+1, t)
		}
	}
	db(1, 1)
	return append(out, out[:n-1]...)
}

// deflateMayPay's repeat test is exact: on random strings over alphabets of
// 2 to 256 symbols at every length around the floor, on the longest strings
// without a repeat, and on strings whose sequences pile into one slot of its
// table or share the low or high bits that index a small lossy table, it
// answers what the map does.
func TestDeflateMayPayMatchesMapReference(t *testing.T) {
	check := func(name string, b []byte) bool {
		t.Helper()
		want := len(b) >= deflateFloor || refHasRepeat(b)
		if got := deflateMayPay(b); got != want {
			t.Fatalf("%s (%d bytes): deflateMayPay = %v, the map says %v", name, len(b), got, want)
		}
		return want
	}
	rng := rand.New(rand.NewSource(1))
	for _, alphabet := range []int{2, 4, 16, 256} {
		for n := 0; n <= deflateFloor+8; n += 1 + rng.Intn(7) {
			b := make([]byte, n)
			for i := range b {
				b[i] = byte(rng.Intn(alphabet))
			}
			check("random", b)
		}
	}
	for _, b := range [][]byte{nil, {0, 0, 0}, {0, 0, 0, 0}, {0xff, 0xff, 0xff, 0xff}} {
		if check("short", b) {
			t.Fatalf("%x holds no repeat", b)
		}
	}
	if !check("five zeros", make([]byte, 5)) { // two overlapping occurrences
		t.Fatal("five zero bytes hold a repeat")
	}
	db := deBruijn(4, minMatch) // 259 bytes, every sequence once
	if check("de Bruijn", db) {
		t.Fatal("the de Bruijn sequence holds no repeat")
	}
	if !check("de Bruijn + 1", append(bytes.Clone(db), db[len(db)-minMatch+1])) {
		t.Fatal("a de Bruijn sequence one byte longer must repeat")
	}
	// Distinct sequences that all hash to one slot, or share the 16 low or
	// high bits, laid end to end; then the same with one of them again.
	slot := func(k uint32) uint32 { return k * 0x9e3779b1 >> (32 - repeatBits) }
	families := map[string]func(uint32) uint32{
		"one slot":  slot,
		"low bits":  func(k uint32) uint32 { return k & 0xffff },
		"high bits": func(k uint32) uint32 { return k >> 16 },
	}
	verdicts := map[bool]int{}
	for name, class := range families {
		var keys []uint32
		seen := map[uint32]bool{}
		for len(keys) < (deflateFloor-minMatch)/minMatch {
			if k := rng.Uint32(); class(k) == class(0x5eed) && !seen[k] {
				keys, seen[k] = append(keys, k), true
			}
		}
		var b []byte
		for _, k := range keys {
			b = binary.LittleEndian.AppendUint32(b, k)
		}
		verdicts[check(name, b)]++
		verdicts[check(name+" repeated", binary.LittleEndian.AppendUint32(b, keys[len(keys)/2]))]++
	}
	if verdicts[false] == 0 || verdicts[true] == 0 {
		t.Fatalf("colliding strings gave verdicts %v, want both", verdicts)
	}
}

// The DEFLATE gate drops the candidate only where LZ77 has nothing to match
// and the stream is under the floor. Three streams the ungated selector
// frames as DEFLATE: the literal-only one under the floor no longer gets a
// DEFLATE frame; the small one with a repeat, and a literal-only one past the
// floor, get the ungated frame byte for byte.
func TestCompressIntsDeflateGate(t *testing.T) {
	// Values under k with one in twenty a wide outlier: no range frame (the
	// span is too wide), and a varint stored form whose bytes skew small
	// without repeating.
	outliers := func(n int, k int64) []int64 {
		rng := rand.New(rand.NewSource(3))
		v := make([]int64, n)
		for i := range v {
			if v[i] = rng.Int63n(k); rng.Intn(20) == 0 {
				v[i] = rng.Int63()
			}
		}
		return v
	}
	var pattern []int64
	for i := 0; i < 24; i++ {
		pattern = append(pattern, 5, 900_001, -17, 123_456_789)
	}
	cases := []struct {
		name          string
		values        []int64
		small, repeat bool
	}{
		{"literal-only under the floor", outliers(158, 200), true, false},
		{"repeat under the floor", pattern, true, true},
		{"literal-only past the floor", outliers(300, 1000), false, false},
	}
	for _, c := range cases {
		enc := colenc.EncodeBest(c.values)
		if small := len(enc) < deflateFloor; small != c.small {
			t.Fatalf("%s: stored form of %d bytes, want under the floor %v", c.name, len(enc), c.small)
		}
		if rep := refHasRepeat(enc); rep != c.repeat {
			t.Fatalf("%s: repeat %v, want %v", c.name, rep, c.repeat)
		}
		ungated := freshCompressInts(c.values, Auto, false)
		if ungated[0] != TagDeflate {
			t.Fatalf("%s: ungated choice is %s, want deflate: the case does not exercise the gate", c.name, Name(ungated[0]))
		}
		got := CompressInts(c.values, Auto)
		if !c.small || c.repeat { // the gate admits it
			if !bytes.Equal(got, ungated) {
				t.Errorf("%s: %s frame of %d bytes, want the ungated deflate frame of %d", c.name, Name(got[0]), len(got), len(ungated))
			}
			continue
		}
		if got[0] == TagDeflate {
			t.Errorf("%s: still framed as deflate", c.name)
		}
		if want := freshCompressInts(c.values, Auto, true); !bytes.Equal(got, want) {
			t.Errorf("%s: %s frame of %d bytes, want the gated reference's %s of %d", c.name, Name(got[0]), len(got), Name(want[0]), len(want))
		}
	}
}
