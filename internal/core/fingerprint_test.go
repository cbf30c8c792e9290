package core

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"runtime"
	"testing"

	"deepsqueeze/internal/datagen"
	"deepsqueeze/internal/dataset"
)

// writerFingerprints are the SHA-256 digests of Compress's output for two
// fixed tables. Unlike the goldens, which pin how archives decode and which
// -update rewrites from the code under test, these pin what the writer
// emits: a change that must keep every archive's bytes — a faster kernel, a
// scratch served uncleared — leaves them as they are, and a change that
// moves bytes has to edit them on purpose.
var writerFingerprints = []struct {
	name       string
	table      func() *dataset.Table
	thresholds func(*dataset.Table) []float64
	opts       func() Options
	sha256     string
}{
	{
		name:       "monitor",
		table:      func() *dataset.Table { return datagen.Monitor(rand.New(rand.NewSource(41)), 4096) },
		thresholds: func(t *dataset.Table) []float64 { return datagen.Thresholds(t, 0.05) },
		opts: func() Options {
			o := fingerprintOpts()
			o.NumExperts, o.CodeSize = 2, 4
			return o
		},
		sha256: "e75e2819ea19f80ca5cc92bdc2fa5a65301e9e7c2b6d1de96149c14aa5dd5dfb",
	},
	{
		name:       "census-head",
		table:      func() *dataset.Table { return censusHead(rand.New(rand.NewSource(42)), 1000, 24) },
		thresholds: func(t *dataset.Table) []float64 { return datagen.Thresholds(t, 0) },
		opts:       fingerprintOpts,
		sha256:     "4e457cb2788ddf385bfb4009a76f8b692b8c688b7993d7a8682340f220196858",
	},
}

// fingerprintOpts is one worker and a fixed number of epochs: the bytes
// then depend on the code alone.
func fingerprintOpts() Options {
	o := DefaultOptions()
	o.Parallelism = 1
	o.Train.Epochs = 3
	o.Train.ConvergeEps = 1e-12
	return o
}

// censusHead is the first cols columns of a rows-row Census table.
func censusHead(rng *rand.Rand, rows, cols int) *dataset.Table {
	full := datagen.Census(rng, rows)
	t := dataset.NewTable(dataset.NewSchema(full.Schema.Columns[:cols]...), 0)
	copy(t.Str, full.Str[:cols])
	t.SetNumRows(rows)
	return t
}

// The writer's bytes are the ones pinned above, in every build of this
// package (with and without -tags noasm). Off amd64 the test skips: the
// losses and the expert assignment take math.Log from the standard library,
// which rounds differently on other architectures and may move what the
// writer chooses (ROADMAP item 10).
func TestWriterFingerprint(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("writer fingerprints are pinned on amd64: math.Log rounds differently elsewhere")
	}
	for _, fp := range writerFingerprints {
		tb := fp.table()
		res, err := Compress(tb, fp.thresholds(tb), fp.opts())
		if err != nil {
			t.Fatalf("%s: %v", fp.name, err)
		}
		sum := sha256.Sum256(res.Archive)
		if got := hex.EncodeToString(sum[:]); got != fp.sha256 {
			t.Errorf("%s: archive of %d bytes has SHA-256 %s, want %s", fp.name, len(res.Archive), got, fp.sha256)
		}
	}
}
