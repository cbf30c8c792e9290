package codec

import (
	"bufio"
	"encoding/hex"
	"errors"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestFrozenCPTFrames: range-cpt frames as writers built them, committed in
// testdata/frozen.txt (name, frame in hex, values as v or v*count), decode to
// the values beside them and refuse a bound one below their count.
func TestFrozenCPTFrames(t *testing.T) {
	f, err := os.Open("testdata/frozen.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		fields := strings.Split(line, "\t")
		frame, err := hex.DecodeString(fields[1])
		if err != nil || len(fields) != 3 || frame[0] != TagRangeCPT {
			t.Fatalf("malformed line %q", line)
		}
		want := []int64{}
		for _, tok := range strings.Fields(fields[2]) {
			v, c, _ := strings.Cut(tok, "*")
			val, _ := strconv.ParseInt(v, 10, 64)
			count := int64(1)
			if c != "" {
				count, _ = strconv.ParseInt(c, 10, 64)
			}
			for ; count > 0; count-- {
				want = append(want, val)
			}
		}
		got, err := DecompressInts(frame, len(want))
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("%s: decoded %d values (%v), want the %d committed", fields[0], len(got), err, len(want))
		}
		if _, err := DecompressInts(frame, len(want)-1); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: bound %d = %v, want ErrCorrupt", fields[0], len(want)-1, err)
		}
		n++
	}
	if n == 0 {
		t.Fatal("no frozen frames")
	}
}
