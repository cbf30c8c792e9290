package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deepsqueeze"
	"deepsqueeze/internal/pipeline"
)

// captureStdout runs fn with os.Stdout redirected and returns what it printed.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan []byte, 1)
	go func() {
		out, _ := io.ReadAll(r)
		done <- out
	}()
	runErr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	if runErr != nil {
		t.Fatal(runErr)
	}
	return out
}

func csvSum(t *testing.T, tb *deepsqueeze.Table) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%d rows, csv sha256 %x", tb.NumRows(), sha256.Sum256(buf.Bytes()))
}

func stageLine(stages []deepsqueeze.StageStats) string {
	var names []string
	var scan int64
	for _, st := range stages {
		names = append(names, st.Name)
		if st.Name == "scan" {
			scan = st.Bytes
		}
	}
	return fmt.Sprintf("stages %s; scan skipped %d bytes", strings.Join(names, " "), scan)
}

// TestV1Behaviour replays every read entry point over the three frozen
// version-1 fixtures and compares the transcript with the one recorded
// before version 1 became a one-group view of the version-2 metadata
// (testdata/v1_behaviour.golden): what a v1 archive decodes to was always
// under the golden fixtures, this pins what the handle reports about it.
func TestV1Behaviour(t *testing.T) {
	var got bytes.Buffer
	ctx := context.Background()
	for _, name := range []string{"categorical", "numerical", "moe"} {
		path := filepath.Join("..", "..", "internal", "core", "testdata", name+".dsqz")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "== %s (%d bytes) ==\n", name, len(raw))
		a, err := deepsqueeze.Open(raw)
		if err != nil {
			t.Fatal(err)
		}
		decode := func(label string, opts deepsqueeze.DecompressOptions) *deepsqueeze.Table {
			res, err := a.Decompress(opts)
			if err != nil {
				t.Fatalf("%s %s: %v", name, label, err)
			}
			fmt.Fprintf(&got, "%s: %s; %s\n", label, csvSum(t, res.Table), stageLine(res.Stages))
			return res.Table
		}
		full := decode("full", deepsqueeze.DecompressOptions{})
		cols := full.Schema.Columns
		last := cols[len(cols)-1].Name
		decode("project "+last, deepsqueeze.DecompressOptions{Columns: []string{last}})
		decode("rows [40,90)", deepsqueeze.DecompressOptions{RowRange: &deepsqueeze.RowRange{Lo: 40, Hi: 90}})

		// A masked-out group selects no rows: an empty group list decodes
		// nothing. How many bytes the scan steps over to get there is not
		// part of the record.
		none, err := a.DecodeBlocksRun(pipeline.New(ctx, 0), nil, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		for _, row := range none {
			rows += row[0].Len()
		}
		fmt.Fprintf(&got, "mask [false]: %d rows\n", rows)

		all := make([]int, len(cols))
		for c := range all {
			all[c] = c
		}
		blocks, err := a.DecodeBlocks(ctx, []int{0}, all, nil)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "blocks {0}: %d groups x %d columns", a.NumGroups(), len(blocks[0]))
		for c, b := range blocks[0] {
			same := b.Len() == full.NumRows()
			for i := 0; same && i < b.Len(); i++ {
				if b.Str != nil {
					same = b.Str[i] == full.Str[c][i]
				} else {
					same = b.Num[i] == full.Num[c][i]
				}
			}
			fmt.Fprintf(&got, "; %s %d rows %d bytes same=%v", cols[c].Name, b.Len(), b.Bytes(), same)
		}
		fmt.Fprintf(&got, "; GroupRows(0)=%d\n", a.GroupRows(0))

		idx, err := a.Index()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "index: version %d, %d rows, external %v, zone maps %v, %d group(s)",
			idx.Version, idx.Rows, idx.External, idx.HasZoneMaps, len(idx.Groups))
		for _, g := range idx.Groups {
			fmt.Fprintf(&got, " [%d,+%d) zones %d", g.Start, g.Count, len(g.Zones))
		}
		fmt.Fprintln(&got)
		// The one group's SegmentBytes is the extent of its section chunks:
		// everything between the decoder chunk and the checksum. (It was the
		// whole archive, len(raw), while v1 had an index of its own.)
		if n := idx.Groups[0].SegmentBytes; n <= 0 || n >= int64(len(raw)) {
			t.Errorf("%s: index reports a %d-byte segment in a %d-byte archive", name, n, len(raw))
		}

		info := *a.Info()
		info.Schema = nil // a pointer; the inspect text below lists the columns
		fmt.Fprintf(&got, "info: %+v\n", info)
		got.Write(captureStdout(t, func() error { return runInspect([]string{"-in", path}) }))

		stats, err := a.StreamStats()
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range stats {
			fmt.Fprintf(&got, "stream %q %s: %d chunks, %d/%d bytes, %s\n",
				st.Column, st.Stream, st.Chunks, st.FrameBytes, st.RawBytes, codecHistogram(st.Codecs))
		}

		var where deepsqueeze.Predicate
		if full.Str[0] != nil {
			where = deepsqueeze.Eq(cols[0].Name, full.Str[0][0])
		} else {
			where = deepsqueeze.Le(cols[0].Name, full.Num[0][0])
		}
		for _, q := range []deepsqueeze.QueryOptions{
			{Where: where},
			{Where: where, Select: []string{last}, Limit: 5},
			{Where: where, Aggs: []deepsqueeze.AggOp{{Kind: deepsqueeze.AggCount}}},
			{},
		} {
			qr, err := deepsqueeze.QueryArchive(ctx, a, q)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "query where=%v select=%v aggs=%d limit=%d: matched %d, groups %d pruned %d, skipped %d bytes",
				q.Where != nil, q.Select, len(q.Aggs), q.Limit, qr.Matched, qr.GroupsTotal, qr.GroupsPruned, qr.BytesSkipped)
			if qr.Table != nil {
				fmt.Fprintf(&got, ", %s", csvSum(t, qr.Table))
			}
			for _, ag := range qr.Aggregates {
				fmt.Fprintf(&got, ", agg %v", ag.Value)
			}
			fmt.Fprintf(&got, "; %s\n", stageLine(qr.Stages))
		}
	}

	// Frozen like the fixtures it describes: recorded once, never rewritten.
	want, err := os.ReadFile(filepath.Join("testdata", "v1_behaviour.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("v1 behaviour drifted at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("v1 behaviour transcript has %d lines, recorded %d", len(gl), len(wl))
	}
}
