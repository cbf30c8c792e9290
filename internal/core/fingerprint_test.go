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

// writerFingerprints are the SHA-256 digests of the writers' output for
// fixed tables. Unlike the goldens, which pin how archives decode and which
// -update rewrites from the code under test, these pin what the writer
// emits: a change that must keep every archive's bytes — a faster kernel, a
// scratch served uncleared — leaves them as they are, and a change that
// moves bytes has to edit them on purpose. The entries reach every way the
// writer orders and cuts its streams: one group and several, the grouped
// stored order and the per-tuple labels, sparse queues split across groups,
// and the streaming writer's refit groups in both stored orders and with a
// residual-digit column's packed dictionary.
var writerFingerprints = []struct {
	name       string
	table      func() *dataset.Table
	thresholds func(*dataset.Table) []float64
	opts       func() Options
	// writeRows, when positive, writes the table through an ArchiveWriter
	// fed writeRows rows per Write instead of through Compress.
	writeRows int
	sha256    string
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
	{
		// Three groups whose escaped codes and continuous corrections are
		// split between them; the per-tuple labels win the mapping.
		name:       "latent-groups",
		table:      func() *dataset.Table { return latentTable(300, 111) },
		thresholds: latentThresholds,
		opts:       func() Options { return latentGroupOpts(true) },
		sha256:     "60e0be32ae7893ab39be41547ad859d242ad685094ee8cf56ef1ce5428c2e196",
	},
	{
		// The same table stored grouped by expert within every group.
		name:       "latent-groups-unordered",
		table:      func() *dataset.Table { return latentTable(300, 111) },
		thresholds: latentThresholds,
		opts:       func() Options { return latentGroupOpts(false) },
		sha256:     "7fe92db61c3729f3c0b8d51b8a7ec6df425877686a4f2ef3976beab7ae13b4c0",
	},
	{
		// k-means experts over rows sorted by cluster: the labels branch of
		// the mapping choice, which the Monitor entry does not take.
		name:       "clustered-labels",
		table:      func() *dataset.Table { return clusteredTable(1600, false) },
		thresholds: func(*dataset.Table) []float64 { return []float64{0, 0} },
		opts: func() Options {
			o := fingerprintOpts()
			o.NumExperts, o.Partition = 2, PartitionKMeans
			return o
		},
		sha256: "6b38a475bbbd4c6d610c5c21f4580b615cda19ee9ee42661e286063daa9d632f",
	},
	{
		// The streaming writer: a training group, then refit groups in
		// original order, the last one short.
		name:       "stream-ordered",
		table:      func() *dataset.Table { return latentTable(350, 112) },
		thresholds: latentThresholds,
		opts:       func() Options { return latentGroupOpts(true) },
		writeRows:  70,
		sha256:     "1e0872e1494ab84a99a73e1eaa482bcf9b1f748bbf2c30cdf400c38a4972712c",
	},
	{
		// The same stream stored grouped by expert in every refit group.
		name:       "stream-unordered",
		table:      func() *dataset.Table { return latentTable(350, 112) },
		thresholds: latentThresholds,
		opts:       func() Options { return latentGroupOpts(false) },
		writeRows:  70,
		sha256:     "726dc9365fffb9170a61799d203a91f2a0375ff95dad4c6953dd943827ea9c83",
	},
	{
		// The streaming writer on a residual-digit column: a training
		// group, then refit groups that each ship their plan with its
		// DEFLATE-packed dictionary.
		name:       "stream-resbit",
		table:      func() *dataset.Table { return clickTable(480, 40, 113) },
		thresholds: func(*dataset.Table) []float64 { return []float64{0, 0, 0.05} },
		opts: func() Options {
			o := fingerprintOpts()
			o.RowGroupSize = 120
			o.Preproc.ResidualCats = true
			o.Preproc.MaxModelCardinality = 16
			return o
		},
		writeRows: 60,
		sha256:    "162c06cda2c3cc4fb90da833eda4097ca25b09bf78e4de3b1010b9c5669ff15f",
	},
}

func latentThresholds(*dataset.Table) []float64 { return []float64{0, 0, 0.05, 0.05, 0} }

// latentGroupOpts is two experts over 100-row groups with zone maps, the
// continuous columns unquantized (every misprediction stores a correction)
// and the four-value categorical cut to a three-code alphabet (the fourth
// value escapes).
func latentGroupOpts(keepOrder bool) Options {
	o := fingerprintOpts()
	o.NumExperts, o.RowGroupSize, o.KeepRowOrder = 2, 100, keepOrder
	o.Preproc.NoQuantization = true
	o.Preproc.MaxModelCardinality = 3
	return o
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
// package (with and without -tags noasm). The streaming writer's entries hold
// at Parallelism 1, 2 and 4: its compressing goroutine takes helpers from the
// same pool, and how many it gets must not move a byte. Off amd64 the test
// skips: the losses and the expert assignment take math.Log from the
// standard library, which rounds differently on other architectures and may
// move what the writer chooses (ROADMAP item 10).
func TestWriterFingerprint(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("writer fingerprints are pinned on amd64: math.Log rounds differently elsewhere")
	}
	for _, fp := range writerFingerprints {
		tb := fp.table()
		pars := []int{fp.opts().Parallelism}
		if fp.writeRows > 0 {
			pars = []int{1, 2, 4}
		}
		for _, par := range pars {
			opts := fp.opts()
			opts.Parallelism = par
			archive := writeArchive(t, tb, fp.thresholds(tb), opts, fp.writeRows)
			sum := sha256.Sum256(archive)
			if got := hex.EncodeToString(sum[:]); got != fp.sha256 {
				t.Errorf("%s at Parallelism %d: archive of %d bytes has SHA-256 %s, want %s", fp.name, par, len(archive), got, fp.sha256)
			}
		}
	}
}
