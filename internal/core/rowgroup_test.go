package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"deepsqueeze/internal/dataset"
	"deepsqueeze/internal/pipeline"
)

// groupOpts compresses with a small row-group size so modest test tables
// split into several groups.
func groupOpts(groupSize, experts int) Options {
	o := quickOpts()
	o.RowGroupSize = groupSize
	o.NumExperts = experts
	return o
}

func TestRowGroupRoundTripSizes(t *testing.T) {
	tb := latentTable(1000, 11)
	thr := []float64{0, 0, 0.05, 0.05, 0}
	tol := tolerances(tb, thr)
	for _, gs := range []int{0, 100, 333, 1000, 5000} {
		opts := quickOpts()
		opts.RowGroupSize = gs
		res, err := Compress(tb, thr, opts)
		if err != nil {
			t.Fatalf("group size %d: %v", gs, err)
		}
		got, err := Decompress(res.Archive)
		if err != nil {
			t.Fatalf("group size %d: %v", gs, err)
		}
		if err := tb.EqualWithin(got, tol); err != nil {
			t.Fatalf("group size %d: %v", gs, err)
		}
		info, err := Inspect(res.Archive)
		if err != nil {
			t.Fatalf("group size %d: %v", gs, err)
		}
		wantGroups := 1
		if gs > 0 && gs < 1000 {
			wantGroups = (1000 + gs - 1) / gs
		}
		if len(info.Groups) != wantGroups {
			t.Fatalf("group size %d: %d groups, want %d", gs, len(info.Groups), wantGroups)
		}
		next := 0
		for _, g := range info.Groups {
			if g.RowStart != next {
				t.Fatalf("group size %d: group starts at %d, want %d", gs, g.RowStart, next)
			}
			next += g.RowCount
		}
		if next != 1000 {
			t.Fatalf("group size %d: groups cover %d rows", gs, next)
		}
	}
}

func TestRowGroupMultiExpertRoundTrip(t *testing.T) {
	tb := latentTable(900, 12)
	thr := []float64{0, 0, 0.05, 0.05, 0}
	tol := tolerances(tb, thr)
	for _, keep := range []bool{true, false} {
		opts := groupOpts(200, 2)
		opts.KeepRowOrder = keep
		res, err := Compress(tb, thr, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decompress(res.Archive)
		if err != nil {
			t.Fatal(err)
		}
		if keep {
			if err := tb.EqualWithin(got, tol); err != nil {
				t.Fatalf("keepOrder: %v", err)
			}
		} else if got.NumRows() != tb.NumRows() {
			t.Fatalf("!keepOrder: %d rows, want %d", got.NumRows(), tb.NumRows())
		}
	}
}

// TestRowGroupDeterministicAcrossParallelism pins the ISSUE's determinism
// acceptance criterion: identical bytes at parallelism 1, 4, and NumCPU.
func TestRowGroupDeterministicAcrossParallelism(t *testing.T) {
	tb := latentTable(700, 13)
	thr := []float64{0, 0, 0.05, 0.05, 0}
	var ref []byte
	for _, p := range []int{1, 4, runtime.NumCPU()} {
		opts := groupOpts(150, 2)
		opts.Parallelism = p
		res, err := Compress(tb, thr, opts)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res.Archive
		} else if !bytes.Equal(ref, res.Archive) {
			t.Fatalf("archive differs at parallelism %d", p)
		}
	}
}

// TestRowRangeSkipsGroups pins the tentpole's skip guarantee: a RowRange
// decode of a multi-group archive must skip every non-overlapping group's
// segment, observable as scan-stage skipped bytes covering those segments.
func TestRowRangeSkipsGroups(t *testing.T) {
	tb := latentTable(1000, 14)
	opts := groupOpts(100, 1)
	res, err := Compress(tb, []float64{0, 0, 0.05, 0.05, 0}, opts)
	if err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(res.Archive)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Groups) != 10 {
		t.Fatalf("%d groups, want 10", len(info.Groups))
	}
	// Rows [450, 550) overlap exactly groups 4 and 5; the other eight
	// segments must be skipped whole.
	var wantSkipped int64
	for i, g := range info.Groups {
		if i != 4 && i != 5 {
			// The skip covers the segment chunk payload (the framed bytes),
			// not the kind byte or length prefix.
			wantSkipped += g.SegmentBytes
		}
	}
	dres, err := DecompressContext(context.Background(), res.Archive,
		DecompressOptions{RowRange: &RowRange{Lo: 450, Hi: 550}})
	if err != nil {
		t.Fatal(err)
	}
	if dres.Table.NumRows() != 100 {
		t.Fatalf("%d rows, want 100", dres.Table.NumRows())
	}
	full, err := Decompress(res.Archive)
	if err != nil {
		t.Fatal(err)
	}
	for col := range tb.Schema.Columns {
		if err := columnEqual(full, dres.Table, col, col, 450); err != nil {
			t.Fatal(err)
		}
	}
	var scanSkipped int64
	for _, st := range dres.Stages {
		if st.Name == "scan" {
			scanSkipped = st.Bytes
		}
	}
	// Each skipped segment contributes its framed payload; framing overhead
	// (kind byte + length prefix) stays outside the skip count, so the
	// skipped bytes land a hair under the summed segment extents but must
	// cover nearly all of them.
	if scanSkipped < wantSkipped-int64(len(info.Groups)*12) {
		t.Fatalf("scan skipped %d bytes, want ≈%d (8 whole segments)", scanSkipped, wantSkipped)
	}
	// A full decode must not skip anything.
	fres, err := DecompressContext(context.Background(), res.Archive, DecompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range fres.Stages {
		if st.Name == "scan" && st.Bytes != 0 {
			t.Fatalf("full decode scan skipped %d bytes", st.Bytes)
		}
	}
}

// TestRowRangeAcrossGroupsMatchesV1Semantics sweeps row ranges over group
// boundaries and compares with the full decode.
func TestRowRangeAcrossGroups(t *testing.T) {
	archive, _ := compressLatent(t, 640, 15, groupOpts(128, 2))
	full := decodeOpts(t, archive, DecompressOptions{})
	ranges := []RowRange{
		{0, 1}, {0, 128}, {127, 129}, {128, 256}, {100, 500}, {639, 640}, {0, 640},
	}
	for _, rr := range ranges {
		got := decodeOpts(t, archive, DecompressOptions{RowRange: &rr})
		if got.NumRows() != rr.Hi-rr.Lo {
			t.Fatalf("range %+v: %d rows", rr, got.NumRows())
		}
		for col := range full.Schema.Columns {
			if err := columnEqual(full, got, col, col, rr.Lo); err != nil {
				t.Fatalf("range %+v: %v", rr, err)
			}
		}
	}
}

// TestRowGroupProjectionAcrossGroups combines column projection with
// multi-group archives.
func TestRowGroupProjectionAcrossGroups(t *testing.T) {
	archive, _ := compressLatent(t, 500, 16, groupOpts(120, 2))
	full := decodeOpts(t, archive, DecompressOptions{})
	got := decodeOpts(t, archive, DecompressOptions{
		Columns:  []string{"cat", "m2"},
		RowRange: &RowRange{Lo: 60, Hi: 400},
	})
	if got.NumRows() != 340 || got.Schema.NumColumns() != 2 {
		t.Fatalf("got %d rows × %d cols", got.NumRows(), got.Schema.NumColumns())
	}
	for gi, name := range []string{"cat", "m2"} {
		fi := -1
		for i, c := range full.Schema.Columns {
			if c.Name == name {
				fi = i
			}
		}
		if err := columnEqual(full, got, fi, gi, 60); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInspectGroupSections checks the footer's per-group section sizes sum
// to the breakdown's totals.
func TestInspectGroupSections(t *testing.T) {
	tb := latentTable(600, 17)
	res, err := Compress(tb, []float64{0, 0, 0.05, 0.05, 0}, groupOpts(150, 2))
	if err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(res.Archive)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 || info.RowGroupSize != 150 || info.Rows != 600 {
		t.Fatalf("info = %+v", info)
	}
	var codes, mapping, failures int64
	for _, g := range info.Groups {
		codes += g.CodesBytes
		mapping += g.MappingBytes
		failures += g.FailureBytes
	}
	bd := res.Breakdown
	if codes != bd.Codes || mapping != bd.Mapping || failures != bd.Failures {
		t.Fatalf("group sections %d/%d/%d, breakdown %d/%d/%d",
			codes, mapping, failures, bd.Codes, bd.Mapping, bd.Failures)
	}
}

// decodeGroups runs DecodeBlocksRun over every column of the given row
// groups and returns the blocks with the scan stage's skipped-bytes counter.
func decodeGroups(t *testing.T, a *Archive, groups ...int) ([][]*ColumnBlock, int64) {
	t.Helper()
	cols := make([]int, len(a.Schema().Columns))
	for c := range cols {
		cols[c] = c
	}
	run := pipeline.New(context.Background(), 0)
	blocks, err := a.DecodeBlocksRun(run, groups, cols)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range run.Stats() {
		if st.Name == "scan" {
			return blocks, st.Bytes
		}
	}
	t.Fatal("no scan stage recorded")
	return nil, 0
}

// blocksEqual checks that one group's blocks hold rows [lo, lo+n) of full.
func blocksEqual(t *testing.T, full *dataset.Table, row []*ColumnBlock, lo int) {
	t.Helper()
	for c, b := range row {
		for i := 0; i < b.Len(); i++ {
			if b.Str != nil && b.Str[i] != full.Str[c][lo+i] || b.Str == nil && b.Num[i] != full.Num[c][lo+i] {
				t.Fatalf("col %d row %d: block differs from the full decode", c, lo+i)
			}
		}
	}
}

// TestGroupMaskSkipsGroups pins the query engine's pruning hook: a
// DecodeBlocksRun over some row groups must skip every other group's segment
// (scan-stage skipped bytes), return the requested groups' rows in archive
// order, and charge nothing when every group is requested.
func TestGroupMaskSkipsGroups(t *testing.T) {
	tb := latentTable(1000, 18)
	res, err := Compress(tb, []float64{0, 0, 0.05, 0.05, 0}, groupOpts(100, 1))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Open(res.Archive)
	if err != nil {
		t.Fatal(err)
	}
	info := a.Info()
	if len(info.Groups) != 10 {
		t.Fatalf("%d groups, want 10", len(info.Groups))
	}
	full, err := Decompress(res.Archive)
	if err != nil {
		t.Fatal(err)
	}

	// Keep only groups 4 and 5: identical to decoding rows [400, 600).
	var wantSkipped int64
	for i, g := range info.Groups {
		if i != 4 && i != 5 {
			wantSkipped += g.SegmentBytes
		}
	}
	blocks, skipped := decodeGroups(t, a, 4, 5)
	if len(blocks) != 2 {
		t.Fatalf("%d groups of blocks, want 2", len(blocks))
	}
	blocksEqual(t, full, blocks[0], 400)
	blocksEqual(t, full, blocks[1], 500)
	if skipped < wantSkipped-int64(len(info.Groups)*12) {
		t.Fatalf("scan skipped %d bytes, want ≈%d (8 pruned segments)", skipped, wantSkipped)
	}

	// A non-contiguous selection returns each surviving group's rows.
	blocks, _ = decodeGroups(t, a, 1, 4, 7)
	for k, lo := range []int{100, 400, 700} {
		if blocks[k][0].Len() != 100 {
			t.Fatalf("group at %d: %d rows, want 100", lo, blocks[k][0].Len())
		}
		blocksEqual(t, full, blocks[k], lo)
	}

	// Every group decodes everything and skips nothing.
	_, skipped = decodeGroups(t, a, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	if skipped != 0 {
		t.Fatalf("decoding every group skipped %d bytes", skipped)
	}
}

// TestGroupMaskV1 covers the version-1 single-group semantics: group 0 is
// every row, an empty group list decodes none, and there is no group 1.
func TestGroupMaskV1(t *testing.T) {
	archive, err := os.ReadFile(filepath.Join("testdata", "categorical.dsqz"))
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
	blocks, _ := decodeGroups(t, a, 0)
	if blocks[0][0].Len() != full.NumRows() {
		t.Fatalf("%d rows, want %d", blocks[0][0].Len(), full.NumRows())
	}
	blocksEqual(t, full, blocks[0], 0)
	if blocks, _ = decodeGroups(t, a); len(blocks) != 0 {
		t.Fatalf("an empty group list decoded %d groups", len(blocks))
	}
	if _, err := a.DecodeBlocksRun(pipeline.New(context.Background(), 0), []int{1}, []int{0}); err == nil {
		t.Fatal("group 1 accepted for a v1 archive")
	}
}
