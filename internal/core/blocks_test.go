package core

import (
	"bytes"
	"context"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"deepsqueeze/internal/dataset"
)

// blocksTestArchive compresses a small multi-group table.
func blocksTestArchive(t *testing.T) ([]byte, *dataset.Table) {
	t.Helper()
	schema := dataset.NewSchema(
		dataset.Column{Name: "tag", Type: dataset.Categorical},
		dataset.Column{Name: "seq", Type: dataset.Numeric},
		dataset.Column{Name: "noise", Type: dataset.Numeric},
	)
	rows := 512
	tb := dataset.NewTable(schema, rows)
	rng := rand.New(rand.NewSource(7))
	tags := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < rows; i++ {
		tb.AppendRow([]string{tags[rng.Intn(len(tags))]},
			[]float64{float64(i), rng.Float64() * 100})
	}
	opts := DefaultOptions()
	opts.Seed = 7
	opts.CodeSize = 2
	opts.Train.Epochs = 2
	opts.TrainSampleRows = 256
	opts.RowGroupSize = 64
	res, err := Compress(tb, []float64{0, 0.001, 0.01}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.Archive, tb
}

// TestDecodeBlocksMatchesFullDecode checks every (group, column) block equals
// the corresponding span of a full decompression, for several group/column
// subsets — and that every block owns a backing array of exactly its own
// length that overlaps no other block's, charged at the cache's accounting
// rate (assemble writes blocks in place, so no
// copy guarantees this any more).
func TestDecodeBlocksMatchesFullDecode(t *testing.T) {
	archive, _ := blocksTestArchive(t)
	a, err := Open(archive)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Decompress(archive)
	if err != nil {
		t.Fatal(err)
	}
	ngroups := a.NumGroups()
	if ngroups != 8 {
		t.Fatalf("%d groups, want 8", ngroups)
	}
	starts := make([]int, ngroups+1)
	for g := 0; g < ngroups; g++ {
		starts[g+1] = starts[g] + a.GroupRows(g)
	}
	cases := []struct {
		groups, cols []int
	}{
		{[]int{0}, []int{0}},
		{[]int{0, 1, 2, 3, 4, 5, 6, 7}, []int{0, 1, 2}},
		{[]int{2, 5}, []int{1}},
		{[]int{7}, []int{0, 2}},
	}
	for _, tc := range cases {
		blocks, err := a.DecodeBlocks(context.Background(), tc.groups, tc.cols, nil)
		if err != nil {
			t.Fatalf("DecodeBlocks(%v,%v): %v", tc.groups, tc.cols, err)
		}
		type span struct{ lo, hi uintptr }
		var owned []span
		for gi, g := range tc.groups {
			for ci, c := range tc.cols {
				b := blocks[gi][ci]
				var sp span
				wantBytes := int64(24)
				if b.Str != nil {
					sp.lo = uintptr(unsafe.Pointer(unsafe.SliceData(b.Str)))
					sp.hi = sp.lo + uintptr(cap(b.Str))*unsafe.Sizeof("")
					for _, v := range b.Str {
						wantBytes += 16 + int64(len(v))
					}
				} else {
					sp.lo = uintptr(unsafe.Pointer(unsafe.SliceData(b.Num)))
					sp.hi = sp.lo + uintptr(cap(b.Num))*8
					wantBytes += 8 * int64(len(b.Num))
				}
				if cap(b.Str) != len(b.Str) || cap(b.Num) != len(b.Num) {
					t.Fatalf("group %d col %d: block is a prefix of a larger array", g, c)
				}
				for _, o := range owned {
					if sp.lo < o.hi && o.lo < sp.hi {
						t.Fatalf("group %d col %d: backing array overlaps another block's", g, c)
					}
				}
				owned = append(owned, sp)
				if b.Bytes() != wantBytes {
					t.Fatalf("group %d col %d: Bytes() = %d, want %d", g, c, b.Bytes(), wantBytes)
				}
				if b.Len() != a.GroupRows(g) {
					t.Fatalf("group %d col %d: %d rows, want %d", g, c, b.Len(), a.GroupRows(g))
				}
				for i := 0; i < b.Len(); i++ {
					r := starts[g] + i
					if b.Str != nil {
						if b.Str[i] != full.Str[c][r] {
							t.Fatalf("group %d col %d row %d: %q != %q", g, c, i, b.Str[i], full.Str[c][r])
						}
					} else if b.Num[i] != full.Num[c][r] {
						t.Fatalf("group %d col %d row %d: %v != %v", g, c, i, b.Num[i], full.Num[c][r])
					}
				}
			}
		}
	}
}

// TestReadersAgreeGroupByGroup pins the single assemble behind the three read
// entry points: on committed goldens (two v2 from Compress, one v2 from the
// streaming writer whose later groups carry plan overrides, one v1 whose rows
// were stored expert-grouped), group g from ArchiveReader.Next, DecodeBlocks({g}, every
// column) and rows [start, start+count) of Decompress hold the same cells.
func TestReadersAgreeGroupByGroup(t *testing.T) {
	for _, name := range []string{"multigroup_v2", "f32_v2", "streamed_v2", "moe"} {
		archive, err := os.ReadFile(filepath.Join("testdata", name+".dsqz"))
		if err != nil {
			t.Fatal(err)
		}
		full, err := Decompress(archive)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Open(archive)
		if err != nil {
			t.Fatal(err)
		}
		ar, err := NewArchiveReader(bytes.NewReader(archive))
		if err != nil {
			t.Fatal(err)
		}
		cols := make([]int, len(full.Schema.Columns))
		for c := range cols {
			cols[c] = c
		}
		start := 0
		for g := 0; g < a.NumGroups(); g++ {
			next, err := ar.Next()
			if err != nil {
				t.Fatalf("%s group %d: Next: %v", name, g, err)
			}
			blocks, err := a.DecodeBlocks(context.Background(), []int{g}, cols, nil)
			if err != nil {
				t.Fatalf("%s group %d: DecodeBlocks: %v", name, g, err)
			}
			rows := a.GroupRows(g)
			if next.NumRows() != rows {
				t.Fatalf("%s group %d: Next returned %d rows, index says %d", name, g, next.NumRows(), rows)
			}
			for c, col := range full.Schema.Columns {
				b := blocks[0][c]
				if b.Len() != rows {
					t.Fatalf("%s group %d col %d: block of %d rows, want %d", name, g, c, b.Len(), rows)
				}
				for i := 0; i < rows; i++ {
					if col.Type == dataset.Categorical {
						if w := full.Str[c][start+i]; next.Str[c][i] != w || b.Str[i] != w {
							t.Fatalf("%s group %d col %d row %d: reader %q, block %q, full decode %q",
								name, g, c, i, next.Str[c][i], b.Str[i], w)
						}
					} else if w := math.Float64bits(full.Num[c][start+i]); math.Float64bits(next.Num[c][i]) != w || math.Float64bits(b.Num[i]) != w {
						t.Fatalf("%s group %d col %d row %d: reader %v, block %v, full decode %v",
							name, g, c, i, next.Num[c][i], b.Num[i], full.Num[c][start+i])
					}
				}
			}
			start += rows
		}
		if _, err := ar.Next(); err != io.EOF {
			t.Fatalf("%s: Next after the last group: %v, want io.EOF", name, err)
		}
		if start != full.NumRows() {
			t.Fatalf("%s: groups cover %d rows, full decode has %d", name, start, full.NumRows())
		}
	}
}

// TestDecodeBlocksValidation checks the ascending/bounds contract errors.
func TestDecodeBlocksValidation(t *testing.T) {
	archive, _ := blocksTestArchive(t)
	a, err := Open(archive)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name         string
		groups, cols []int
	}{
		{"no groups", nil, []int{0}},
		{"no cols", []int{0}, nil},
		{"group out of range", []int{99}, []int{0}},
		{"groups descending", []int{3, 1}, []int{0}},
		{"col out of range", []int{0}, []int{9}},
		{"cols duplicate", []int{0}, []int{1, 1}},
	} {
		if _, err := a.DecodeBlocks(ctx, tc.groups, tc.cols, nil); err == nil {
			t.Fatalf("%s: no error", tc.name)
		}
	}
}

// TestSortedUnique pins the helper's sort-and-dedup contract.
func TestSortedUnique(t *testing.T) {
	got := SortedUnique([]int{3, 1, 3, 0, 1})
	want := []int{0, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}
