package query

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"deepsqueeze/internal/core"
)

// TestKernelChunking forces multi-chunk kernel evaluation: one row group of
// 5000 rows spans three kernelChunk windows (the last partial), and deep
// predicate trees exercise the tmp stack across chunks.
func TestKernelChunking(t *testing.T) {
	archive := compressQueryTable(t, 5000, 73, 5000)
	full, err := core.Decompress(archive)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(74))
	for trial := 0; trial < 10; trial++ {
		opts := Options{Where: randPred(rng, 4)} // nested And/Or/Not need stacked tmps
		res, err := Run(archive, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, res, full, opts)
	}
}

// funcSource adapts a function to BlockSource.
type funcSource func(groups, cols []int) ([][]*core.ColumnBlock, error)

func (f funcSource) Blocks(_ context.Context, groups, cols []int) ([][]*core.ColumnBlock, error) {
	return f(groups, cols)
}

// TestBlockSourceContract drives the executor through a caller-supplied
// BlockSource: an honest one answers exactly like the handle (and is timed
// as one "blocks" stage), and each way of breaking the contract — a missing
// group, a missing column, a nil block, a block of the wrong length — is an
// error, never a panic or a wrong answer.
func TestBlockSourceContract(t *testing.T) {
	archive := compressQueryTable(t, 400, 75, 100)
	a, err := core.Open(archive)
	if err != nil {
		t.Fatal(err)
	}
	full, err := core.Decompress(archive)
	if err != nil {
		t.Fatal(err)
	}
	decode := func(groups, cols []int) ([][]*core.ColumnBlock, error) {
		return a.DecodeBlocks(context.Background(), groups, cols, nil)
	}
	opts := Options{Where: Ge("seq", 150), Select: []string{"tag", "noise"}, Limit: 40}

	calls := 0
	opts.Blocks = funcSource(func(groups, cols []int) ([][]*core.ColumnBlock, error) {
		calls++
		if len(cols) != 3 { // tag, noise, and the filtered-on seq
			t.Errorf("source asked for columns %v, want the 3 the query touches", cols)
		}
		return decode(groups, cols)
	})
	res, err := RunArchive(context.Background(), a, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, res, full, opts)
	if calls != 1 {
		t.Fatalf("source called %d times, want 1 batched fetch", calls)
	}
	if got := stageNames(res); got != "blocks filter pack" {
		t.Fatalf("stages %q, want blocks filter pack", got)
	}

	type grid = [][]*core.ColumnBlock
	for _, tc := range []struct {
		name    string
		breakIt func(b grid) grid
	}{
		{"missing group", func(b grid) grid { return b[:len(b)-1] }},
		{"missing column", func(b grid) grid { b[0] = b[0][:len(b[0])-1]; return b }},
		{"nil block", func(b grid) grid { b[len(b)-1][1] = nil; return b }},
		{"wrong length", func(b grid) grid {
			short := *b[0][0]
			short.Str = short.Str[:50]
			b[0][0] = &short
			return b
		}},
	} {
		opts.Blocks = funcSource(func(groups, cols []int) (grid, error) {
			blocks, err := decode(groups, cols)
			if err != nil {
				return nil, err
			}
			return tc.breakIt(blocks), nil
		})
		_, err := RunArchive(context.Background(), a, opts)
		if err == nil || !strings.Contains(err.Error(), "block source returned") {
			t.Errorf("%s: err = %v, want a block-source contract error", tc.name, err)
		}
	}
}
