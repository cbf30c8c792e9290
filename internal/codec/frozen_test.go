package codec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"deepsqueeze/internal/rangecoder"
)

// cptFrame is the static-table range encoder writers built TagRangeCPT frames
// with until they stopped offering them, kept here to build frames the
// decoder must still read: symbols v−base coded against the stream's counts,
// quantized to one byte per alphabet symbol and shipped ahead of the body.
// nil for a stream no range frame can hold.
func cptFrame(values []int64) []byte {
	if len(values) == 0 || len(values) > maxRangeValues {
		return nil
	}
	base, hi := slices.Min(values), slices.Max(values)
	if uint64(hi)-uint64(base) >= maxRangeAlphabet {
		return nil
	}
	alphabet := int(hi-base) + 1
	counts := make([]int, alphabet)
	maxCount := 1
	for _, v := range values {
		counts[v-base]++
		maxCount = max(maxCount, counts[v-base])
	}
	limit := 255
	if alphabet*256 > int(rangecoder.MaxTotal) {
		limit = max(1, int(rangecoder.MaxTotal)/alphabet-1)
	}
	t := &staticTable{freq: make([]uint16, alphabet)}
	out := binary.AppendUvarint([]byte{TagRangeCPT}, uint64(len(values)))
	out = binary.AppendUvarint(binary.AppendVarint(out, base), uint64(alphabet))
	for s, c := range counts {
		t.freq[s] = 1
		if c > 0 {
			t.freq[s] = uint16(1 + c*(limit-1)/maxCount)
		}
		out = append(out, byte(t.freq[s]-1))
	}
	t.finish()
	e := rangecoder.NewEncoder()
	for _, v := range values {
		e.Encode(t.cum[v-base], uint32(t.freq[v-base]), t.tot)
	}
	return append(out, e.Bytes()...)
}

// frozenLine is one line of a frozen-vector file: a name, the bytes in hex,
// and the values they hold, each v or v*count.
type frozenLine struct {
	name   string
	buf    []byte
	values []int64
}

// readFrozen parses a frozen-vector file: testdata/frozen.txt here, and
// colenc's, whose lines are stored-form bodies of retired encodings.
func readFrozen(tb testing.TB, path string) []frozenLine {
	tb.Helper()
	f, err := os.Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	var out []frozenLine
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) != 3 {
			tb.Fatalf("malformed line %q", line)
		}
		l := frozenLine{name: fields[0], values: []int64{}}
		if l.buf, err = hex.DecodeString(fields[1]); err != nil || len(l.buf) == 0 {
			tb.Fatalf("malformed line %q", line)
		}
		for _, tok := range strings.Fields(fields[2]) {
			v, c, _ := strings.Cut(tok, "*")
			val, err1 := strconv.ParseInt(v, 10, 64)
			count, err2 := int64(1), error(nil)
			if c != "" {
				count, err2 = strconv.ParseInt(c, 10, 64)
			}
			if err1 != nil || err2 != nil {
				tb.Fatalf("malformed value %q in %s", tok, l.name)
			}
			for ; count > 0; count-- {
				l.values = append(l.values, val)
			}
		}
		out = append(out, l)
	}
	if err := sc.Err(); err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestFrozenCPTFrames: range-cpt frames as writers built them, committed in
// testdata/frozen.txt (name, frame in hex, values as v or v*count), decode to
// the values beside them and refuse a bound one below their count; cptFrame
// rebuilds each byte for byte.
func TestFrozenCPTFrames(t *testing.T) {
	frames := readFrozen(t, "testdata/frozen.txt")
	if len(frames) == 0 {
		t.Fatal("no frozen frames")
	}
	for _, f := range frames {
		if f.buf[0] != TagRangeCPT {
			t.Fatalf("%s: a %s frame", f.name, Name(f.buf[0]))
		}
		got, err := DecompressInts(f.buf, len(f.values))
		if err != nil || !slices.Equal(got, f.values) {
			t.Fatalf("%s: decoded %d values (%v), want the %d committed", f.name, len(got), err, len(f.values))
		}
		if _, err := DecompressInts(f.buf, len(f.values)-1); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: bound %d = %v, want ErrCorrupt", f.name, len(f.values)-1, err)
		}
		if !bytes.Equal(cptFrame(f.values), f.buf) {
			t.Fatalf("%s: cptFrame does not rebuild the frozen frame", f.name)
		}
	}
}
