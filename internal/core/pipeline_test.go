package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"deepsqueeze/internal/dataset"
)

// TestParallelismDeterminism is the tentpole's central guarantee: for a
// fixed seed, archives are byte-for-byte identical at every parallelism
// level, across both partitioning modes and the truncation search.
func TestParallelismDeterminism(t *testing.T) {
	tb := latentTable(1200, 3)
	thr := []float64{0, 0, 0.05, 0.05, 0}
	for _, mode := range []PartitionMode{PartitionMoE, PartitionKMeans} {
		opts := quickOpts()
		opts.NumExperts = 3
		opts.Partition = mode
		opts.Parallelism = 1
		seq, err := Compress(tb, thr, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{2, 4, 8} {
			opts.Parallelism = p
			par, err := Compress(tb, thr, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(seq.Archive, par.Archive) {
				t.Fatalf("mode %v: archive differs between parallelism 1 (%d bytes) and %d (%d bytes)",
					mode, len(seq.Archive), p, len(par.Archive))
			}
		}
		got, err := Decompress(seq.Archive)
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.EqualWithin(got, tolerances(tb, thr)); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
	}
}

// TestTrainWorkersDeterminism: the pool minibatch shards train on is the
// run's, so Parallelism 1 (serial), 4 and NumCPU must not differ in a single
// archive byte — the shard partition and gradient-reduction order depend on
// batch shape alone. Two experts, so the gated per-expert batches shard too.
func TestTrainWorkersDeterminism(t *testing.T) {
	tb := latentTable(900, 2)
	thr := []float64{0, 0, 0.05, 0.05, 0}
	opts := quickOpts()
	opts.NumExperts = 2
	opts.Parallelism = 1
	base, err := Compress(tb, thr, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{4, runtime.NumCPU()} {
		opts.Parallelism = p
		got, err := Compress(tb, thr, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(base.Archive, got.Archive) {
			t.Fatalf("archive differs between Parallelism=1 (%d bytes) and %d (%d bytes)",
				len(base.Archive), p, len(got.Archive))
		}
	}
}

func TestCompressContextAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CompressContext(ctx, latentTable(300, 1), []float64{0, 0, 0, 0, 0}, quickOpts())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCompressContextDeadline checks prompt cancellation mid-compression
// with no goroutine leaks: training dominates the runtime, so a deadline
// that expires during it must surface quickly via the Stop hook.
func TestCompressContextDeadline(t *testing.T) {
	before := runtime.NumGoroutine()
	tb := latentTable(3000, 2)
	opts := quickOpts()
	opts.Train.Epochs = 200 // long enough that the deadline lands mid-training
	opts.Parallelism = 4
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := CompressContext(ctx, tb, []float64{0, 0, 0.05, 0.05, 0}, opts)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
	// All pool helpers are joined before ForEach returns; give the runtime a
	// moment to reap exiting goroutines, then verify none leaked.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestStageStatsPopulated(t *testing.T) {
	tb := latentTable(800, 1)
	opts := quickOpts()
	res, err := Compress(tb, []float64{0, 0, 0.05, 0.05, 0}, opts)
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]StageStats)
	for _, st := range res.Stages {
		names[st.Name] = st
	}
	for _, want := range []string{"preprocess", "train", "encode", "truncation-search", "assemble"} {
		if _, ok := names[want]; !ok {
			t.Fatalf("stage %q missing from %v", want, res.Stages)
		}
	}
	if names["assemble"].Bytes != int64(len(res.Archive)) {
		t.Fatalf("assemble bytes %d != archive %d", names["assemble"].Bytes, len(res.Archive))
	}
	if names["truncation-search"].Bytes <= 0 {
		t.Fatal("truncation-search recorded no candidate size")
	}
}

// clusteredTable builds rows from two well-separated clusters. When
// interleave is true, cluster membership alternates row to row (expensive
// to delta-code grouped indexes, cheap as labels); when false, rows arrive
// sorted by cluster (grouped indexes nearly free).
func clusteredTable(rows int, interleave bool) *dataset.Table {
	schema := dataset.NewSchema(
		dataset.Column{Name: "x", Type: dataset.Numeric},
		dataset.Column{Name: "y", Type: dataset.Numeric},
	)
	t := dataset.NewTable(schema, rows)
	for i := 0; i < rows; i++ {
		var c int
		if interleave {
			c = i % 2
		} else if i >= rows/2 {
			c = 1
		}
		base := float64(c) * 1000
		t.AppendRow(nil, []float64{base + float64(i%13), base + float64(i%7)})
	}
	return t
}

// TestKeepRowOrderMappingBranches drives the grouped-vs-labels decision in
// materialize down both branches and round-trips each, checking the chosen
// encoding via the archive's flags byte.
func TestKeepRowOrderMappingBranches(t *testing.T) {
	cases := []struct {
		name       string
		interleave bool
	}{
		{"interleaved-prefers-labels", true},
		{"sorted-prefers-grouped", false},
	}
	branches := make(map[bool]bool) // grouped? → seen
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb := clusteredTable(1600, tc.interleave)
			thr := []float64{0, 0}
			opts := quickOpts()
			opts.NumExperts = 2
			opts.Partition = PartitionKMeans
			opts.KeepRowOrder = true
			res, err := Compress(tb, thr, opts)
			if err != nil {
				t.Fatal(err)
			}
			_, _, flags, err := newSectionReader(res.Archive)
			if err != nil {
				t.Fatal(err)
			}
			grouped := flags&flagGrouped != 0
			branches[grouped] = true
			if flags&flagRowOrder == 0 {
				t.Fatal("KeepRowOrder archive lost row order")
			}
			got, err := Decompress(res.Archive)
			if err != nil {
				t.Fatal(err)
			}
			if err := tb.EqualWithin(got, tolerances(tb, thr)); err != nil {
				t.Fatal(err)
			}
		})
	}
	if !branches[true] || !branches[false] {
		t.Fatalf("mapping decision did not exercise both branches: %v", branches)
	}
}

// TestTuneContextDeterminism: the tuner is deterministic for a fixed
// (seed, Parallelism) pair, and honors cancellation.
func TestTuneContextDeterminism(t *testing.T) {
	tb := latentTable(900, 5)
	thr := []float64{0, 0, 0.05, 0.05, 0}
	topts := DefaultTuneOptions()
	topts.Base = quickOpts()
	topts.Samples = []int{400}
	topts.Codes = []int{1, 2, 4}
	topts.Experts = []int{1, 2}
	topts.Budget = 5
	run := func(p int) *TuneResult {
		topts := topts
		topts.Base.Parallelism = p
		res, err := TuneContext(context.Background(), tb, thr, topts)
		if err != nil {
			t.Fatal(err)
		}
		res.Best.Parallelism = 0
		return res
	}
	// The trials run one after another whatever the pool's size, so the
	// trajectory and the choice are the same at every Parallelism.
	a := run(1)
	for _, p := range []int{1, 2, 4} {
		b := run(p)
		if !reflect.DeepEqual(a.Best, b.Best) {
			t.Fatalf("parallelism %d: best %+v, want %+v", p, b.Best, a.Best)
		}
		if !slices.Equal(a.Trials, b.Trials) {
			t.Fatalf("parallelism %d: trials %+v, want %+v", p, b.Trials, a.Trials)
		}
	}
	if len(a.Trials) == 0 || len(a.Stages) == 0 || !strings.HasPrefix(a.Stages[0].Name, "tune-") {
		t.Fatalf("trials %d, tune stages = %+v", len(a.Trials), a.Stages)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := TuneContext(ctx, tb, thr, topts); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled tune err = %v", err)
	}
}

// The batch reader runs the ordinary staged request: it reports its stages
// and stops on a cancelled context.
func TestStreamBatchContext(t *testing.T) {
	model, batch, wantCSV := batchFixture(t)
	res, err := DecompressBatchContext(context.Background(), model, batch, DecompressOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stages) == 0 {
		t.Fatal("batch result has no stage stats")
	}
	if !bytes.Equal(csvBytes(t, res.Table), wantCSV) {
		t.Fatal("batch decoded differently at parallelism 2")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DecompressBatchContext(ctx, model, batch, DecompressOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch err = %v", err)
	}
}
