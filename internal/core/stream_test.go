package core

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"deepsqueeze/internal/dataset"
)

// streamBatch generates a telemetry-like batch; drift shifts the latent
// distribution to simulate a changing fleet.
func streamBatch(rows int, seed int64, drift float64) *dataset.Table {
	schema := dataset.NewSchema(
		dataset.Column{Name: "status", Type: dataset.Categorical},
		dataset.Column{Name: "bin", Type: dataset.Categorical},
		dataset.Column{Name: "load", Type: dataset.Numeric},
		dataset.Column{Name: "temp", Type: dataset.Numeric},
	)
	t := dataset.NewTable(schema, rows)
	rng := rand.New(rand.NewSource(seed))
	states := []string{"idle", "busy", "hot", "crit"}
	for i := 0; i < rows; i++ {
		z := rng.Float64()
		zd := z*(1-drift) + drift
		bin := "0"
		if zd > 0.5 {
			bin = "1"
		}
		t.AppendRow(
			[]string{states[int(zd*3.999)], bin},
			[]float64{zd * 100, 30 + zd*50},
		)
	}
	return t
}

func streamOpts() Options {
	o := DefaultOptions()
	o.CodeSize = 2
	o.Train.Epochs = 10
	return o
}

// newBatchWriter returns an ArchiveWriter whose row groups hold rows rows
// each: the first batch written trains the model, every later one becomes a
// refit group.
func newBatchWriter(t *testing.T, w io.Writer, rows int, thr []float64) *ArchiveWriter {
	t.Helper()
	opts := streamOpts()
	opts.RowGroupSize = rows
	aw, err := NewArchiveWriter(w, streamBatch(1, 0, 0).Schema, thr, opts)
	if err != nil {
		t.Fatal(err)
	}
	return aw
}

// writeBatches writes each batch as one row group and returns the archive.
func writeBatches(t *testing.T, thr []float64, batches ...*dataset.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	aw := newBatchWriter(t, &buf, batches[0].NumRows(), thr)
	for i, b := range batches {
		if err := aw.Write(b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkBatches reads the archive group by group and checks group i against
// batch i within the thresholds.
func checkBatches(t *testing.T, archive []byte, thr []float64, batches ...*dataset.Table) {
	t.Helper()
	ar, err := NewArchiveReader(bytes.NewReader(archive))
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range batches {
		got, err := ar.Next()
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if err := b.EqualWithin(got, tolerances(b, thr)); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if _, err := ar.Next(); err != io.EOF {
		t.Fatalf("Next after the last batch: %v, want io.EOF", err)
	}
}

func TestStreamRoundTrip(t *testing.T) {
	thr := []float64{0, 0, 0.05, 0.05}
	batches := []*dataset.Table{streamBatch(500, 1, 0)}
	for b := int64(2); b <= 4; b++ {
		batches = append(batches, streamBatch(500, b, 0))
	}
	checkBatches(t, writeBatches(t, thr, batches...), thr, batches...)
}

// A refit group carries no decoders and no training: it must be smaller
// than a self-contained archive of the same rows.
func TestStreamBatchSmallerThanSelfContained(t *testing.T) {
	thr := []float64{0, 0, 0.05, 0.05}
	batch := streamBatch(1000, 6, 0)
	info, err := Inspect(writeBatches(t, thr, streamBatch(1000, 5, 0), batch))
	if err != nil {
		t.Fatal(err)
	}
	full, err := Compress(batch, thr, streamOpts())
	if err != nil {
		t.Fatal(err)
	}
	if seg := info.Groups[1].SegmentBytes; seg >= full.Breakdown.Total {
		t.Fatalf("refit group %d bytes ≥ self-contained %d", seg, full.Breakdown.Total)
	}
}

func TestStreamUnseenValuesRoundTrip(t *testing.T) {
	thr := []float64{0, 0, 0.05, 0.05}
	// A batch with categorical values never seen in training and numeric
	// values outside the training range.
	batch := streamBatch(400, 8, 0)
	for i := 0; i < 40; i++ {
		batch.Str[0][i] = fmt.Sprintf("novel-%d", i%7)
		batch.Num[2][i] = 500 + float64(i) // far outside training range
	}
	train := streamBatch(400, 7, 0)
	checkBatches(t, writeBatches(t, thr, train, batch), thr, train, batch)
}

func TestStreamDriftStillBounded(t *testing.T) {
	thr := []float64{0, 0, 0.1, 0.1}
	// Heavy drift: the model mispredicts more (bigger failures) but the
	// error bound must still hold.
	train, batch := streamBatch(600, 9, 0), streamBatch(600, 10, 0.6)
	checkBatches(t, writeBatches(t, thr, train, batch), thr, train, batch)
}

// TestStreamValidation: a refit group must keep what the trained model
// depends on, or the writer refuses it as a retrain signal.
func TestStreamValidation(t *testing.T) {
	thr := []float64{0, 0, 0.05, 0.05}
	aw := newBatchWriter(t, io.Discard, 500, thr)
	if err := aw.Write(streamBatch(500, 11, 0)); err != nil {
		t.Fatal(err)
	}
	// Wrong schema.
	other := dataset.NewTable(dataset.NewSchema(
		dataset.Column{Name: "x", Type: dataset.Numeric},
	), 1)
	other.AppendRow(nil, []float64{1})
	if err := aw.Write(other); err == nil || !strings.Contains(err.Error(), "schema differs") {
		t.Errorf("schema mismatch: got %v", err)
	}
	// A binary column growing a third value must demand a retrain.
	bad := streamBatch(500, 12, 0)
	bad.Str[1][0] = "2"
	if err := aw.Write(bad); err == nil || !strings.Contains(err.Error(), "retrain") {
		t.Errorf("binary column with 3 values: got %v, want a retrain-needed rejection", err)
	}
}

// The model archive of a streaming batch pair is an ordinary self-contained
// archive.
func TestStreamModelArchiveIsSelfContained(t *testing.T) {
	model, _, _ := batchFixture(t)
	got, err := Decompress(model)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 300 {
		t.Fatalf("model archive decodes to %d rows", got.NumRows())
	}
	if got := readStream(t, model); got.NumRows() != 300 {
		t.Fatalf("ArchiveReader reads %d rows of the model archive", got.NumRows())
	}
}
