package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"deepsqueeze/internal/core"
	"deepsqueeze/internal/datagen"
	"deepsqueeze/internal/mat"
	"deepsqueeze/internal/nn"
	"deepsqueeze/internal/pipeline"
)

// trainResult is the JSON record one pool size contributes to
// BENCH_train.json. AllocsPerBatch is the raw steady-state malloc count per
// minibatch; it splits into the trainer's own allocations (the serial
// measurement — the forward/backward/reduce path, documented ≤ 3 in
// DESIGN.md §12) and scheduler overhead, the helper-goroutine spawns
// pipeline.Pool.Do performs on every call of a pool larger than one. Earlier
// revisions published only the raw number, which read as a trainer leak at
// four workers (7 vs the documented 3); the split keeps the two accountable
// separately and the bench errors out if the trainer's own share drifts
// above 3.
type trainResult struct {
	PoolSize                int     `json:"pool_size"`
	RowsPerSec              float64 `json:"rows_per_sec"`
	Speedup                 float64 `json:"speedup_vs_pool1"`
	AllocsPerBatch          float64 `json:"allocs_per_batch"`
	TrainerAllocsPerBatch   float64 `json:"trainer_allocs_per_batch"`
	SchedulerAllocsPerBatch float64 `json:"scheduler_allocs_per_batch"`
}

// trainBenchFile is the top-level BENCH_train.json document.
type trainBenchFile struct {
	Rows              int           `json:"rows"`
	BatchSize         int           `json:"batch_size"`
	Epochs            int           `json:"epochs"`
	NumCPU            int           `json:"num_cpu"`
	Gomaxprocs        int           `json:"gomaxprocs"`
	WeightsIdentical  bool          `json:"weights_identical"`
	ArchivesIdentical bool          `json:"archives_identical"`
	Results           []trainResult `json:"results"`
}

// trainBenchSpecs is the mixed-type column layout the throughput measurement
// trains on: wide enough that the shared categorical stack (the dominant
// kernel load) is exercised alongside the numeric/binary head.
func trainBenchSpecs() []nn.ColSpec {
	return []nn.ColSpec{
		{Kind: nn.OutNumeric}, {Kind: nn.OutNumeric}, {Kind: nn.OutNumeric}, {Kind: nn.OutNumeric},
		{Kind: nn.OutBinary},
		{Kind: nn.OutCategorical, Card: 8},
		{Kind: nn.OutCategorical, Card: 16},
		{Kind: nn.OutCategorical, Card: 5},
	}
}

// trainBenchData synthesizes a correlated training set for the specs above.
func trainBenchData(rng *rand.Rand, specs []nn.ColSpec, rows int) (*mat.Matrix, *nn.Targets) {
	x := mat.New(rows, len(specs))
	tg := &nn.Targets{Num: mat.New(rows, 4), Bin: mat.New(rows, 1), Cat: make([][]int, 3)}
	for j := range tg.Cat {
		tg.Cat[j] = make([]int, rows)
	}
	for r := 0; r < rows; r++ {
		z := rng.Float64()
		ni, bi, ci := 0, 0, 0
		for c, s := range specs {
			switch s.Kind {
			case nn.OutNumeric:
				v := math.Mod(z*float64(c+1)+0.1*rng.Float64(), 1)
				x.Set(r, c, v)
				tg.Num.Set(r, ni, v)
				ni++
			case nn.OutBinary:
				v := 0.0
				if z > 0.5 {
					v = 1
				}
				x.Set(r, c, v)
				tg.Bin.Set(r, bi, v)
				bi++
			case nn.OutCategorical:
				cls := int(z * float64(s.Card-1))
				x.Set(r, c, float64(cls)/float64(s.Card-1))
				tg.Cat[ci][r] = cls
				ci++
			}
		}
	}
	return x, tg
}

// TrainSpeedup measures data-parallel training throughput (rows/sec) and
// steady-state allocations per minibatch on pools of 1, 4 and NumCPU workers,
// verifying the trained weights are bit-identical at every size, then
// cross-checks that compress archives do not change with Options.Parallelism.
// The repo benchmark runs at Parallelism 1, so this is the one measurement of
// what sharded training pays. The trajectory is written to BENCH_train.json
// in the working directory.
func TrainSpeedup(cfg Config) (*Report, error) {
	const batch = 256
	rows := int(16384 * cfg.Scale)
	if cfg.Quick && rows > 4096 {
		rows = 4096
	}
	if rows < 1024 {
		rows = 1024
	}
	rows -= rows % batch
	epochs := 3
	specs := trainBenchSpecs()
	x, tg := trainBenchData(rand.New(rand.NewSource(41)), specs, rows)

	levels := []int{1, 4}
	if n := runtime.NumCPU(); n > 4 {
		levels = append(levels, n)
	}
	rep := &Report{
		ID:      "train",
		Title:   "Data-parallel training: rows/sec and allocs/batch vs. pool size",
		Columns: []string{"pool_size", "rows_per_sec", "speedup", "allocs_per_batch", "trainer_allocs", "scheduler_allocs"},
	}
	file := trainBenchFile{Rows: rows, BatchSize: batch, Epochs: epochs,
		NumCPU: runtime.NumCPU(), Gomaxprocs: runtime.GOMAXPROCS(0), WeightsIdentical: true}

	var baseline, trainerAllocs float64
	var baseWeights []float64
	for _, w := range levels {
		ae, err := nn.NewAutoencoder(rand.New(rand.NewSource(42)), specs, nn.Config{CodeSize: 4})
		if err != nil {
			return nil, err
		}
		opt := nn.NewAdam(0.01)
		pool := pipeline.NewPool(w)
		// Pre-slice the minibatch views so the timed loop's allocations are
		// the trainer's alone.
		nb := rows / batch
		bx := make([]mat.Matrix, nb)
		bnum := make([]mat.Matrix, nb)
		bbin := make([]mat.Matrix, nb)
		btg := make([]nn.Targets, nb)
		for k := 0; k < nb; k++ {
			lo := k * batch
			bx[k] = x.SliceRows(lo, lo+batch)
			bnum[k] = tg.Num.SliceRows(lo, lo+batch)
			bbin[k] = tg.Bin.SliceRows(lo, lo+batch)
			cat := make([][]int, len(tg.Cat))
			for j, col := range tg.Cat {
				cat[j] = col[lo : lo+batch]
			}
			btg[k] = nn.Targets{Num: &bnum[k], Bin: &bbin[k], Cat: cat}
		}
		epoch := func() {
			for k := 0; k < nb; k++ {
				ae.TrainBatch(&bx[k], &btg[k], opt, pool)
			}
		}
		epoch() // warmup: arenas and replicas reach steady state
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for e := 0; e < epochs; e++ {
			epoch()
		}
		secs := time.Since(start).Seconds()
		runtime.ReadMemStats(&m1)
		allocs := float64(m1.Mallocs-m0.Mallocs) / float64(epochs*nb)
		rowsPerSec := float64(epochs*rows) / secs

		weights := flattenWeights(ae)
		if baseWeights == nil {
			baseWeights = weights
			baseline = rowsPerSec
			// A pool of one never calls Pool.Do, so the serial measurement IS
			// the trainer's own steady state — the number DESIGN.md §12
			// documents as ≤ 3. Assert it at bench time so accounting drift
			// (a new allocation sneaking into the batch loop) fails loudly
			// instead of silently inflating the published figure.
			trainerAllocs = allocs
			if trainerAllocs > 3 {
				return nil, fmt.Errorf("bench: trainer steady state allocates %.1f/batch, documented bound is 3", trainerAllocs)
			}
		} else if !weightsEqual(baseWeights, weights) {
			file.WeightsIdentical = false
		}
		sched := allocs - trainerAllocs
		if sched < 0 {
			sched = 0
		}
		// Scheduler overhead is per-call goroutine spawning in Pool.Do:
		// bounded by a few allocations per helper, and there are at most
		// min(workers, shards)-1 helpers. Well past that means something
		// other than the scheduler is allocating per batch.
		if helpers := float64(w - 1); w > 1 && sched > 4*helpers+4 {
			return nil, fmt.Errorf("bench: w=%d scheduler overhead %.1f allocs/batch exceeds spawn budget", w, sched)
		}
		speedup := rowsPerSec / baseline
		file.Results = append(file.Results, trainResult{
			PoolSize: w, RowsPerSec: rowsPerSec, Speedup: speedup,
			AllocsPerBatch: allocs, TrainerAllocsPerBatch: trainerAllocs, SchedulerAllocsPerBatch: sched,
		})
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", w),
			fmt.Sprintf("%.0f", rowsPerSec),
			fmt.Sprintf("%.2fx", speedup),
			fmt.Sprintf("%.1f", allocs),
			fmt.Sprintf("%.1f", trainerAllocs),
			fmt.Sprintf("%.1f", sched),
		})
		cfg.logf("train pool=%d: %.0f rows/s, %.1f allocs/batch (%.1f trainer + %.1f scheduler)",
			w, rowsPerSec, allocs, trainerAllocs, sched)
	}
	if !file.WeightsIdentical {
		return nil, fmt.Errorf("bench: trained weights differ across pool sizes")
	}

	// Cross-check end to end: compress archives must not change with
	// Options.Parallelism either.
	identical, err := trainArchiveIdentity(cfg)
	if err != nil {
		return nil, err
	}
	file.ArchivesIdentical = identical
	if !identical {
		return nil, fmt.Errorf("bench: archives differ across Parallelism")
	}

	rep.Notes = append(rep.Notes,
		"trained weights bit-identical across pool sizes",
		"compress archives bit-identical across Parallelism",
		"trajectory written to BENCH_train.json")
	buf, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile("BENCH_train.json", append(buf, '\n'), 0o644); err != nil {
		return nil, err
	}
	return rep, nil
}

// trainArchiveIdentity compresses Monitor at Parallelism 1, 4, and NumCPU and
// reports whether all archives match.
func trainArchiveIdentity(cfg Config) (bool, error) {
	tc := newTableCache(cfg)
	t, _, err := tc.get("monitor")
	if err != nil {
		return false, err
	}
	th := datagen.Thresholds(t, 0.1)
	var first []byte
	for _, w := range []int{1, 4, runtime.NumCPU()} {
		opts := dsOptions("monitor", cfg)
		opts.Parallelism = w
		res, err := core.Compress(t, th, opts)
		if err != nil {
			return false, err
		}
		if first == nil {
			first = res.Archive
		} else if !bytes.Equal(first, res.Archive) {
			return false, nil
		}
	}
	return true, nil
}

// flattenWeights returns every parameter of the model in layer order.
func flattenWeights(ae *nn.Autoencoder) []float64 {
	var out []float64
	for _, l := range ae.AllLayers() {
		out = append(out, l.W.Data...)
		out = append(out, l.B...)
	}
	return out
}

// weightsEqual is a bit-exact float slice comparison.
func weightsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
