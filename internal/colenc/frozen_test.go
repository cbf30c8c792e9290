package colenc

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

	"deepsqueeze/internal/huffman"
)

// frozenStream is one line of testdata/frozen.txt: a stream of an encoding
// writers no longer offer, and the values it holds.
type frozenStream struct {
	name   string
	buf    []byte
	values []int64
}

// readFrozen parses testdata/frozen.txt: tab-separated name, tag-prefixed
// stream in hex, and space-separated values, each v or v*count.
func readFrozen(t *testing.T) []frozenStream {
	t.Helper()
	f, err := os.Open("testdata/frozen.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []frozenStream
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) != 3 {
			t.Fatalf("malformed line %q", line)
		}
		s := frozenStream{name: fields[0], values: []int64{}}
		if s.buf, err = hex.DecodeString(fields[1]); err != nil {
			t.Fatal(err)
		}
		for _, tok := range strings.Fields(fields[2]) {
			v, n, _ := strings.Cut(tok, "*")
			val, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			count := int64(1)
			if n != "" {
				if count, err = strconv.ParseInt(n, 10, 64); err != nil {
					t.Fatal(err)
				}
			}
			for ; count > 0; count-- {
				s.values = append(s.values, val)
			}
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFrozenRetiredStreams: run-length streams and bitmap streams in each of
// the three container layouts, as earlier writers wrote them, decode to the
// values committed beside them; a bound one below their count rejects them.
// The bitmap encoder these tests keep as a reference still writes exactly
// those bytes.
func TestFrozenRetiredStreams(t *testing.T) {
	streams := readFrozen(t)
	tags := map[Encoding]int{}
	for _, s := range streams {
		tags[Encoding(s.buf[0])]++
		got, err := DecodeBestMax(s.buf, len(s.values))
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if !slices.Equal(got, s.values) {
			t.Fatalf("%s: decoded %d values that differ from the committed %d", s.name, len(got), len(s.values))
		}
		if len(s.values) > 0 {
			if _, err := DecodeBestMax(s.buf, len(s.values)-1); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: bound %d = %v, want ErrCorrupt", s.name, len(s.values)-1, err)
			}
		}
		if Encoding(s.buf[0]) == EncBitmap && !bytes.Equal(encodeBitmapRef(s.values), s.buf[1:]) {
			t.Fatalf("%s: the reference bitmap encoder no longer writes the frozen bytes", s.name)
		}
	}
	if tags[EncRLE] == 0 || tags[EncBitmap] == 0 {
		t.Fatalf("frozen streams by tag %v: want run-length and bitmap", tags)
	}
}

// TestDecodeBestMaxBoundsEveryEncoding: a stream of five values under a bound
// of three is corrupt whatever its encoding — every tag's count is checked
// before its decoder allocates — and decodes at a bound of five.
func TestDecodeBestMaxBoundsEveryEncoding(t *testing.T) {
	values := []int64{4, 4, 4, 1, 1}
	bufs := map[Encoding][]byte{
		EncVarint:  appendVarints([]byte{byte(EncVarint)}, values),
		EncDelta:   appendDelta([]byte{byte(EncDelta)}, values),
		EncFOR:     appendFOR([]byte{byte(EncFOR)}, values),
		EncHuffman: huffman.AppendEncode([]byte{byte(EncHuffman)}, values),
	}
	for _, s := range readFrozen(t) {
		if slices.Equal(s.values, values) || (Encoding(s.buf[0]) == EncBitmap && len(s.values) == len(values)) {
			bufs[Encoding(s.buf[0])] = s.buf
		}
	}
	for enc := EncVarint; enc <= EncBitmap; enc++ {
		buf := bufs[enc]
		if buf == nil {
			t.Fatalf("no five-value %v stream", enc)
		}
		if n, _ := binary.Uvarint(buf[1:]); n != 5 {
			t.Fatalf("%v stream declares %d values", enc, n)
		}
		if _, err := DecodeBestMax(buf, 3); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%v: five values under a bound of three = %v, want ErrCorrupt", enc, err)
		}
		if got, err := DecodeBestMax(buf, 5); err != nil || len(got) != 5 {
			t.Errorf("%v: at a bound of five: %d values, %v", enc, len(got), err)
		}
	}
}
