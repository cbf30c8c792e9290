package core

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"testing"

	"deepsqueeze/internal/codec"
	"deepsqueeze/internal/colfile"
	"deepsqueeze/internal/pipeline"
)

// checkPackingsFresh fails unless every frame p holds is exactly what
// packing its stream afresh gives.
func checkPackingsFresh(t *testing.T, p *packings) {
	t.Helper()
	if p == nil || len(p.streams) == 0 {
		t.Fatal("the decisions left no packings to reuse")
	}
	var size int64
	for key, s := range p.streams {
		want := codec.CompressInts(s.ints, codec.Auto)
		if kindSpecs[key.kind].frame == frameFloats {
			want = colfile.PackFloats(s.floats)
		}
		if !bytes.Equal(s.frame, want) {
			t.Fatalf("stream %+v: kept frame of %d bytes, a fresh packing is %d", key, len(s.frame), len(want))
		}
		size += int64(len(want))
	}
	if size != p.size {
		t.Fatalf("packings size %d, fresh frames total %d", p.size, size)
	}
}

// Reusing packings never changes bytes. Two experts with KeepRowOrder make
// the truncation search, the mapping choice and assembly all reuse frames;
// at Parallelism 1, 4 and NumCPU, in one row group (assembly writes the
// decisions' frames) and in several (it packs each group's streams afresh),
// the archive equals the one assembled from the same decisions with no
// packings kept — every segment packed afresh — and Compress's.
func TestPackingReuseIsByteIdentical(t *testing.T) {
	tb := latentTable(1500, 27)
	thr := []float64{0, 0, 0.05, 0.05, 0}
	for _, rowGroup := range []int{0, 500} {
		var first []byte
		for _, p := range []int{1, 4, runtime.NumCPU()} {
			opts := quickOpts()
			opts.NumExperts = 2
			opts.KeepRowOrder = true
			opts.Parallelism = p
			opts.RowGroupSize = rowGroup
			run := pipeline.New(context.Background(), p)
			st, res, err := trainAndDecide(run, tb, thr, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkPackingsFresh(t, st.packs)
			fresh, freshRes := *st, *res
			fresh.packs = nil
			if err := assembleArchive(run, tb, opts, &fresh, &freshRes); err != nil {
				t.Fatal(err)
			}
			if err := assembleArchive(run, tb, opts, st, res); err != nil {
				t.Fatal(err)
			}
			if st.packs != nil {
				t.Fatal("assembly kept the decisions' packings")
			}
			if !bytes.Equal(res.Archive, freshRes.Archive) {
				t.Fatalf("row group %d, Parallelism %d: reusing packings changed the archive", rowGroup, p)
			}
			one, err := Compress(tb, thr, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(one.Archive, res.Archive) {
				t.Fatalf("row group %d, Parallelism %d: Compress differs from the staged archive", rowGroup, p)
			}
			if first == nil {
				first = res.Archive
			} else if !bytes.Equal(first, res.Archive) {
				t.Fatalf("row group %d: Parallelism %d archive differs from Parallelism 1", rowGroup, p)
			}
		}
	}
}

// packAll shares a frame exactly when the previous set holds the same stream
// under the same key, keeps frames already packed, and packs the rest
// afresh; -0 and +0 are different streams.
func TestPackAllSharesOnlyEqualStreams(t *testing.T) {
	mk := func(ints []int64, vals []float64, dim []int64) streamSet {
		return streamSet{
			{codeDim, 0, 0}:      {ints: dim},
			{failInts, 3, 0}:     {ints: ints},
			{failContMask, 5, 0}: {ints: []int64{0, 1, 0, 1}},
			{failContVals, 5, 0}: {floats: vals},
		}
	}
	ranks := []int64{0, 0, 1, 0, 2, 0, 0, 5}
	a := newPackings(mk(ranks, []float64{1.5, 0}, []int64{1, 2, 3}))
	b := newPackings(mk(append([]int64(nil), ranks...), []float64{1.5, math.Copysign(0, -1)}, []int64{1, 2, 4}))
	run := pipeline.New(context.Background(), 2)
	if err := packAll(run, a, b); err != nil {
		t.Fatal(err)
	}
	shared := func(p, q *packings, key streamKey) bool {
		return &p.streams[key].frame[0] == &q.streams[key].frame[0]
	}
	ints, mask, vals, dim := streamKey{failInts, 3, 0}, streamKey{failContMask, 5, 0}, streamKey{failContVals, 5, 0}, streamKey{codeDim, 0, 0}
	if !shared(a, b, ints) || !shared(a, b, mask) {
		t.Fatal("equal streams were packed twice")
	}
	if shared(a, b, vals) || shared(a, b, dim) {
		t.Fatal("different streams share a frame")
	}
	for _, p := range []*packings{a, b} {
		checkPackingsFresh(t, p)
	}
	// A frame already packed is kept, and a later set still shares it.
	kept := a.streams[ints].frame
	d := newPackings(mk(ranks, []float64{1.5, 0}, []int64{1, 2, 3}))
	if err := packAll(run, a, d); err != nil {
		t.Fatal(err)
	}
	if &a.streams[ints].frame[0] != &kept[0] || !shared(a, d, ints) || !shared(a, d, vals) || !shared(a, d, dim) {
		t.Fatal("a packed set was packed again, or an equal later set did not share its frames")
	}
}
