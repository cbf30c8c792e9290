package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"deepsqueeze"
	"deepsqueeze/internal/codec"
	"deepsqueeze/internal/core"
	"deepsqueeze/internal/mat"
	"deepsqueeze/internal/pipeline"
	"deepsqueeze/internal/preprocess"
	"deepsqueeze/internal/query"
	"deepsqueeze/internal/serve"
)

// Per-round operation counts of the traced run.
const (
	tracedPoints     = 20 // in-process point queries per path, and HTTP points per variant
	tracedJSONPoints = 4  // HTTP points asking for the JSON response with its stages array
	tracedScans      = 2
	foreachItems     = 100_000
)

// layerRun is the state of one traced run: the spans, the scalars that are
// not spans (allocation deltas, bare HTTP timings, /stats deltas), and the
// warm handles the in-process layers are called on.
type layerRun struct {
	f  *fixture
	tr *tracer
	t  *tally

	first     *deepsqueeze.Table // the source's first row group
	groupRows int
	codeCol   []int64 // one model column's code stream
	warm      *core.Archive
	srv       *serve.Server
	scanGroup []int // groups the scan's zone maps keep
	scanCols  []int
	a64, b64  *mat.Matrix
	c64       *mat.Matrix
	a32, b32  *mat.Matrix32
	c32       *mat.Matrix32

	began                          float64   // run clock when the rounds began
	bareHTTP                       []float64 // untraced HTTP point queries, ns
	allocsPerPoint, allocKBPoint   []float64
	allocMBCompress                []float64
	handleHits, handleLookups      int64
	blockHits, blockLookups        int64
	blockBytesPeak                 int64
	statsBefore, statsAfter        serve.Stats
	pointsPruned, pointsTotal      int
	pointSkipped, pointDecodedRows int64
	pointMatched                   int
}

// layerMetrics is the traced run: it calls each module's exported functions
// from here, one span per call, in rounds spread over the measuring time,
// and reduces the spans to the per-layer metrics.
func (f *fixture) layerMetrics(ctx context.Context, cfg config, t *tally) (map[string]metric, error) {
	lr := &layerRun{f: f, tr: newTracer(), t: t}
	if err := lr.prepare(ctx); err != nil {
		return nil, err
	}
	lr.began = f.speed.now()
	n := 0
	rounds, err := repeatRounds(ctx, cfg.seconds, cfg.rounds, func() error {
		n++
		return lr.round(ctx, n-1)
	})
	if err != nil {
		return nil, err
	}
	metrics := lr.reduce(cfg)
	path := filepath.Join(cfg.outDir, "trace-"+f.w.name+".json")
	meta := map[string]any{
		"workload": f.w.name, "seed": cfg.seed, "rounds": rounds,
		"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "num_cpu": runtime.NumCPU(), "rev": gitRev(),
	}
	if err := lr.tr.write(path, meta); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: traced %d rounds, %d spans → %s\n", f.w.name, rounds, len(lr.tr.spans), path)
	return metrics, nil
}

// prepare builds what the rounds reuse and takes the exact counts.
func (lr *layerRun) prepare(ctx context.Context) error {
	f := lr.f
	lr.groupRows = f.groupRows()
	idx := make([]int, lr.groupRows)
	for i := range idx {
		idx[i] = i
	}
	lr.first = f.src.Sample(idx)

	plan, err := preprocess.Fit(lr.first, f.opts.Preproc, f.thresholds)
	if err != nil {
		return err
	}
	model := plan.ModelColumnIndexes()
	if len(model) == 0 {
		return fmt.Errorf("%s: no model column", f.w.name)
	}
	codes, err := plan.Encode(lr.first, model[len(model)/2])
	if err != nil {
		return err
	}
	lr.codeCol = make([]int64, len(codes))
	for i, c := range codes {
		lr.codeCol[i] = int64(c)
	}

	if lr.warm, err = core.OpenFile(f.path); err != nil {
		return err
	}
	lr.srv = serve.New(serve.Config{MaxConcurrent: burstClients, Parallelism: 1, BlockCacheBytes: f.w.blockCache})

	// The scan keeps a prefix of the groups (timestamps are monotone) or,
	// where nothing prunes, all of them.
	res, err := query.RunArchive(ctx, lr.warm, f.scan.opts)
	if err != nil {
		return err
	}
	for g := 0; g < res.GroupsTotal-res.GroupsPruned; g++ {
		lr.scanGroup = append(lr.scanGroup, g)
	}
	want := make(map[string]bool)
	for _, c := range f.scan.spec.conds {
		want[c.col] = true
	}
	for _, s := range f.scan.spec.sel {
		want[s] = true
	}
	for i, c := range f.src.Schema.Columns {
		if want[c.Name] || f.scan.spec.sel == nil {
			lr.scanCols = append(lr.scanCols, i)
		}
	}

	// Decoder inference multiplies a row group by hidden layers of width
	// 2 × #columns.
	hidden := 2 * f.src.Schema.NumColumns()
	rng := rand.New(rand.NewSource(1))
	lr.a64, lr.b64, lr.c64 = mat.New(lr.groupRows, hidden), mat.New(hidden, hidden), mat.New(lr.groupRows, hidden)
	for i := range lr.a64.Data {
		lr.a64.Data[i] = rng.Float64()
	}
	for i := range lr.b64.Data {
		lr.b64.Data[i] = rng.Float64()
	}
	lr.a32, lr.b32 = mat.To32(lr.a64, mat.New32(lr.groupRows, hidden)), mat.To32(lr.b64, mat.New32(hidden, hidden))
	lr.c32 = mat.New32(lr.groupRows, hidden)

	// Exact counts over the hot point queries.
	for i := range f.points {
		res, err := query.RunArchive(ctx, lr.warm, f.points[i].opts)
		if err != nil {
			return err
		}
		lr.pointsPruned += res.GroupsPruned
		lr.pointsTotal += res.GroupsTotal
		lr.pointSkipped += res.BytesSkipped
		lr.pointMatched += res.Matched
		for g := 0; g < res.GroupsTotal-res.GroupsPruned; g++ {
			// Surviving groups are full groups except possibly the last;
			// GroupRows on the first survivors is exact for equal-size groups.
			lr.pointDecodedRows += int64(lr.warm.GroupRows(g))
		}
	}
	lr.statsBefore, err = f.d.stats(ctx)
	lr.statsAfter = lr.statsBefore
	return err
}

// verified runs a result-producing call inside a root span and checks the
// rendered result against the query's reference.
func (lr *layerRun) verified(name string, q *preparedQuery, run func() (*deepsqueeze.QueryResult, error), stagePrefix string) {
	var res *deepsqueeze.QueryResult
	id, err := lr.tr.call(name, func() (err error) {
		res, err = run()
		return err
	})
	if err == nil {
		lr.tr.stages(id, stagePrefix, res.Stages)
		var got []byte
		if got, err = tableCSV(res.Table); err == nil {
			err = sameBytes(name+" result", got, q.want)
		}
	}
	lr.t.check(name, err)
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// round calls every layer once (cheap calls several times).
func (lr *layerRun) round(ctx context.Context, n int) error {
	f, tr := lr.f, lr.tr
	schema := f.src.Schema
	// Per-layer timings are reported as measured; bench.speed_factor says
	// how the machine ran meanwhile (speed.go).
	tick := func() { f.speed.sample() }
	tick()

	// dataset
	_, err := tr.call("dataset.CSVScanner.ReadChunk", func() error {
		sc, err := deepsqueeze.NewCSVScanner(bytes.NewReader(f.csv), schema)
		if err != nil {
			return err
		}
		for {
			if _, err := sc.ReadChunk(lr.groupRows); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
		}
	})
	lr.t.check("csv parse", err)
	_, err = tr.call("dataset.CSVWriter.WriteTable", func() error {
		var buf bytes.Buffer
		buf.Grow(len(f.backCSV))
		cw := deepsqueeze.NewCSVWriter(&buf, schema)
		if err := cw.WriteTable(f.back); err != nil {
			return err
		}
		return cw.Flush()
	})
	lr.t.check("csv write", err)

	// preprocess
	var plan *preprocess.Plan
	_, err = tr.call("preprocess.Fit", func() (err error) {
		plan, err = preprocess.Fit(lr.first, f.opts.Preproc, f.thresholds)
		return err
	})
	lr.t.check("preprocess fit", err)
	if err == nil {
		_, err = tr.call("preprocess.Plan.Encode", func() error {
			for _, c := range plan.ModelColumnIndexes() {
				if _, err := plan.Encode(lr.first, c); err != nil {
					return err
				}
			}
			return nil
		})
		lr.t.check("preprocess encode", err)
	}

	// core, write side: the one-shot pipeline over the first group's rows
	// (the work the writer does for group 0) and the streaming writer with
	// every Write timed.
	runtime.GC()
	var cres *deepsqueeze.Result
	id, err := tr.call("core.CompressContext", func() (err error) {
		cres, err = deepsqueeze.CompressContext(ctx, lr.first, f.thresholds, f.opts)
		return err
	})
	if err == nil {
		tr.stages(id, "core.compress.", cres.Stages)
	}
	lr.t.check("compress first group", err)

	runtime.GC()
	before := memStats()
	var archive []byte
	id = tr.begin("core.ArchiveWriter", -1)
	archive, err = compressCSV(f.csv, schema, f.thresholds, f.opts, func(group int) func() {
		name := "core.writer.later_group"
		if group == 0 {
			name = "core.writer.first_group"
		}
		w := tr.begin(name, id)
		return func() { tr.end(w) }
	})
	tr.end(id)
	lr.allocMBCompress = append(lr.allocMBCompress, float64(memStats().TotalAlloc-before.TotalAlloc)/1e6)
	if err == nil {
		err = sameBytes("recompressed archive", archive, f.archive)
	}
	lr.t.check("compress", err)

	tick()

	// core, read side.
	runtime.GC()
	var dres *deepsqueeze.DecompressResult
	id, err = tr.call("core.DecompressContext", func() (err error) {
		dres, err = deepsqueeze.DecompressContext(ctx, f.archive, deepsqueeze.DecompressOptions{Parallelism: 1})
		return err
	})
	if err == nil {
		tr.stages(id, "core.decompress.", dres.Stages)
		err = verifyBounds(f.src, dres.Table, f.thresholds)
	}
	lr.t.check("decompress in memory", err)

	runtime.GC()
	id = tr.begin("core.ArchiveReader", -1)
	csv, err := decompressCSV(f.archive, len(f.backCSV), func() func(eof bool) {
		g := tr.begin("core.reader.group", id)
		return func(eof bool) {
			tr.end(g)
			if eof {
				tr.spans[g].Name = "core.reader.finish"
			}
		}
	})
	tr.end(id)
	if err == nil {
		err = sameBytes("decompressed CSV", csv, f.backCSV)
	}
	lr.t.check("decompress", err)

	var fresh *core.Archive
	_, err = tr.call("core.Open", func() (err error) {
		_, err = core.Open(f.archive)
		return err
	})
	lr.t.check("open", err)
	_, err = tr.call("core.OpenFile", func() (err error) {
		fresh, err = core.OpenFile(f.path)
		return err
	})
	lr.t.check("open file", err)
	if err == nil {
		_, err = tr.call("core.Archive.Index", func() (err error) {
			_, err = fresh.Index()
			return err
		})
		lr.t.check("index", err)
	}
	_, err = tr.call("core.Archive.DecodeBlocks", func() (err error) {
		_, err = lr.warm.DecodeBlocks(ctx, lr.scanGroup, lr.scanCols, nil)
		return err
	})
	lr.t.check("decode blocks", err)

	tick()

	// mat, codec, pipeline kernels.
	tr.call("mat.MulTInto", func() error { mat.MulTInto(lr.a64, lr.b64, lr.c64); return nil })
	tr.call("mat.MulTInto32", func() error { mat.MulTInto32(lr.a32, lr.b32, lr.c32); return nil })
	var frame []byte
	tr.call("codec.CompressInts", func() error { frame = codec.CompressInts(lr.codeCol, codec.Auto); return nil })
	_, err = tr.call("codec.DecompressInts", func() error {
		got, err := codec.DecompressInts(frame, len(lr.codeCol))
		if err == nil && len(got) != len(lr.codeCol) {
			err = fmt.Errorf("decoded %d of %d values", len(got), len(lr.codeCol))
		}
		return err
	})
	lr.t.check("codec round trip", err)
	_, err = tr.call("pipeline.Run.ForEach", func() error {
		return pipeline.New(ctx, runtime.NumCPU()).ForEach(foreachItems, func(int) error { return nil })
	})
	lr.t.check("pipeline foreach", err)

	// query and serve, in process on warm handles.
	hot := func(i int) *preparedQuery { return &f.points[(n*tracedPoints+i)%len(f.points)] }
	for i := 0; i < tracedPoints; i++ {
		q := hot(i)
		_, err = tr.call("query.Parse", func() error {
			_, err := query.Parse(q.spec.where())
			return err
		})
		lr.t.check("parse", err)
	}
	runtime.GC()
	before = memStats()
	for i := 0; i < tracedPoints; i++ {
		q := hot(i)
		if _, err := query.RunArchive(ctx, lr.warm, q.opts); err != nil {
			return err
		}
	}
	after := memStats()
	lr.allocsPerPoint = append(lr.allocsPerPoint, float64(after.Mallocs-before.Mallocs)/tracedPoints)
	lr.allocKBPoint = append(lr.allocKBPoint, float64(after.TotalAlloc-before.TotalAlloc)/tracedPoints/1024)
	for i := 0; i < tracedPoints; i++ {
		q := hot(i)
		lr.verified("query.RunArchive.point", q, func() (*deepsqueeze.QueryResult, error) {
			return query.RunArchive(ctx, lr.warm, q.opts)
		}, "query.point.")
		lr.verified("serve.Server.Query", q, func() (*deepsqueeze.QueryResult, error) {
			opts := q.opts
			return lr.srv.Query(ctx, f.path, opts)
		}, "serve.stage.")
	}
	for i := 0; i < tracedScans; i++ {
		lr.verified("query.RunArchive.scan", &f.scan, func() (*deepsqueeze.QueryResult, error) {
			return query.RunArchive(ctx, lr.warm, f.scan.opts)
		}, "query.scan.")
	}

	tick()

	// dsqzd over HTTP: bare and spanned requests alternate so that drift
	// hits both alike; a few JSON-format requests bring back the stages.
	st0, err := f.d.stats(ctx)
	if err != nil {
		return err
	}
	for i := 0; i < tracedPoints; i++ {
		q := hot(i)
		bare := func() {
			var got []byte
			ns, err := timed(func() (err error) {
				got, err = f.d.query(ctx, q.body)
				return err
			})
			if err == nil {
				err = sameBytes("point response", got, q.want)
				lr.bareHTTP = append(lr.bareHTTP, ns)
			}
			lr.t.check("point query", err)
		}
		spanned := func() {
			var got []byte
			_, err := tr.call("dsqzd.POST /query", func() (err error) {
				got, err = f.d.query(ctx, q.body)
				return err
			})
			if err == nil {
				err = sameBytes("point response", got, q.want)
			}
			lr.t.check("point query", err)
		}
		// Whichever goes first may find its blocks evicted by the last
		// scans; taking turns shares that cost.
		if i%2 == 0 {
			bare()
			spanned()
		} else {
			spanned()
			bare()
		}
	}
	st1, err := f.d.stats(ctx)
	if err != nil {
		return err
	}
	lr.handleHits += st1.CacheHits - st0.CacheHits
	lr.handleLookups += st1.CacheHits - st0.CacheHits + st1.CacheMisses - st0.CacheMisses
	lr.blockHits += st1.BlockHits - st0.BlockHits
	lr.blockLookups += st1.BlockHits - st0.BlockHits + st1.BlockMisses - st0.BlockMisses
	for i := 0; i < tracedJSONPoints; i++ {
		q := hot(i)
		var body []byte
		id, err := tr.call("dsqzd.POST /query json", func() (err error) {
			body, err = f.d.query(ctx, q.bodyJSON)
			return err
		})
		if err == nil {
			var resp struct {
				Stages []struct {
					Name   string `json:"name"`
					WallNS int64  `json:"wall_ns"`
				} `json:"stages"`
			}
			if err = json.Unmarshal(body, &resp); err == nil {
				stages := make([]deepsqueeze.StageStats, len(resp.Stages))
				for i, s := range resp.Stages {
					stages[i] = deepsqueeze.StageStats{Name: s.Name, Wall: time.Duration(s.WallNS)}
				}
				tr.stages(id, "dsqzd.stage.", stages)
			}
		}
		lr.t.check("point query json", err)
	}
	for i := 0; i < tracedScans; i++ {
		var got []byte
		_, err := tr.call("dsqzd.POST /query scan", func() (err error) {
			got, err = f.d.query(ctx, f.scan.body)
			return err
		})
		if err == nil {
			err = sameBytes("scan response", got, f.scan.want)
		}
		lr.t.check("scan query", err)
	}
	tick()
	if lr.statsAfter, err = f.d.stats(ctx); err != nil {
		return err
	}
	for _, st := range []serve.Stats{st1, lr.statsAfter} {
		if st.BlockBytes > lr.blockBytesPeak {
			lr.blockBytesPeak = st.BlockBytes
		}
	}
	return nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// reduce turns the spans and scalars into the per-layer metrics. A stage a
// workload never runs (mapping with one expert, blocks without a cache)
// reports 0.
func (lr *layerRun) reduce(cfg config) map[string]metric {
	f, tr := lr.f, lr.tr
	m := make(map[string]metric)
	put := func(name string, v float64, unit string) {
		if _, dup := m[name]; dup {
			panic("benchmarks: metric " + name + " emitted twice")
		}
		m[name] = metric{v, unit}
	}
	med := func(span string, div float64) float64 { return median(tr.durations(span)) / div }
	csvMB, backMB := float64(len(f.csv))/1e6, float64(len(f.backCSV))/1e6

	put("dataset.csv_parse_mb_s", ratio(csvMB, med("dataset.CSVScanner.ReadChunk", 1e9)), "MB/s")
	put("dataset.csv_write_mb_s", ratio(backMB, med("dataset.CSVWriter.WriteTable", 1e9)), "MB/s")
	put("preprocess.fit_ms", med("preprocess.Fit", 1e6), "ms")
	put("preprocess.encode_ms", med("preprocess.Plan.Encode", 1e6), "ms")
	for _, st := range []string{"preprocess", "train", "encode", "truncation-search", "mapping", "assemble"} {
		put("core.compress."+st+"_ms", med("core.compress."+st, 1e6), "ms")
	}
	put("core.writer.first_group_ms", med("core.writer.first_group", 1e6), "ms")
	put("core.writer.later_group_ms", med("core.writer.later_group", 1e6), "ms")
	for _, st := range []string{"parse", "scan", "unpack", "resolve", "decode", "assemble"} {
		put("core.decompress."+st+"_ms", med("core.decompress."+st, 1e6), "ms")
	}
	put("core.reader.group_ms", med("core.reader.group", 1e6), "ms")
	put("core.open_us", med("core.Open", 1e3), "us")
	put("core.openfile_us", med("core.OpenFile", 1e3), "us")
	put("core.index_us", med("core.Archive.Index", 1e3), "us")
	put("core.decode_blocks_ms", med("core.Archive.DecodeBlocks", 1e6), "ms")

	flop := 2 * float64(lr.a64.Rows) * float64(lr.a64.Cols) * float64(lr.b64.Rows)
	put("mat.mult_f64_gflops", ratio(flop, med("mat.MulTInto", 1)), "GFLOP/s")
	put("mat.mult_f32_gflops", ratio(flop, med("mat.MulTInto32", 1)), "GFLOP/s")
	intsMB := float64(8*len(lr.codeCol)) / 1e6
	put("codec.ints_enc_mb_s", ratio(intsMB, med("codec.CompressInts", 1e9)), "MB/s")
	put("codec.ints_dec_mb_s", ratio(intsMB, med("codec.DecompressInts", 1e9)), "MB/s")
	put("pipeline.foreach_ns_item", med("pipeline.Run.ForEach", 1)/foreachItems, "ns")

	info := lr.warm.Info()
	var codes, failures, mapping int64
	for _, g := range info.Groups {
		codes += g.CodesBytes
		failures += g.FailureBytes
		mapping += g.MappingBytes
	}
	put("archive.decoder_bytes", float64(info.DecoderBytes), "bytes")
	put("archive.codes_bytes", float64(codes), "bytes")
	put("archive.failures_bytes", float64(failures), "bytes")
	put("archive.mapping_bytes", float64(mapping), "bytes")
	put("archive.other_bytes", float64(int64(info.TotalBytes)-info.DecoderBytes-codes-failures-mapping), "bytes")

	put("query.parse_us", med("query.Parse", 1e3), "us")
	put("query.run_point_us", med("query.RunArchive.point", 1e3), "us")
	put("query.run_scan_ms", med("query.RunArchive.scan", 1e6), "ms")
	put("query.filter_us", med("serve.stage.filter", 1e3), "us")
	put("query.pack_us", med("serve.stage.pack", 1e3), "us")
	put("query.blocks_us", med("serve.stage.blocks", 1e3), "us")
	put("query.groups_pruned_pct", 100*ratio(float64(lr.pointsPruned), float64(lr.pointsTotal)), "%")
	put("query.bytes_skipped_pct", 100*ratio(float64(lr.pointSkipped), float64(len(f.points)*len(f.archive))), "%")
	put("query.rows_decoded_per_match", ratio(float64(lr.pointDecodedRows), float64(lr.pointMatched)), "rows")

	servePoint := med("serve.Server.Query", 1e3)
	put("serve.query_point_us", servePoint, "us")
	put("serve.overhead_us", servePoint-med("query.RunArchive.point", 1e3), "us")
	put("serve.handle_hit_rate", ratio(float64(lr.handleHits), float64(lr.handleLookups)), "ratio")
	put("serve.block_hit_rate", ratio(float64(lr.blockHits), float64(lr.blockLookups)), "ratio")
	put("serve.block_evictions", float64(lr.statsAfter.BlockEvictions-lr.statsBefore.BlockEvictions), "count")
	put("serve.block_bytes_peak", float64(lr.blockBytesPeak), "bytes")
	put("serve.shed", float64(lr.statsAfter.Shed-lr.statsBefore.Shed), "count")

	httpPoint := median(lr.bareHTTP) / 1e3
	put("dsqzd.http_overhead_us", httpPoint-servePoint, "us")
	var pointBytes int
	for i := range f.points {
		pointBytes += len(f.points[i].want)
	}
	put("dsqzd.response_kb_point", float64(pointBytes)/float64(len(f.points))/1024, "KB")
	put("dsqzd.response_kb_scan", float64(len(f.scan.want))/1024, "KB")
	put("dsqzd.peak_rss_mb", peakRSSMB(f.d.cmd.Process.Pid), "MB")

	put("bench.allocs_per_point_query", median(lr.allocsPerPoint), "count")
	put("bench.alloc_kb_per_point_query", median(lr.allocKBPoint), "KB")
	put("bench.alloc_mb_per_compress", median(lr.allocMBCompress), "MB")
	put("bench.peak_rss_mb", peakRSSMB(os.Getpid()), "MB")
	put("bench.build_s", buildSeconds(cfg.outDir), "s")
	put("bench.speed_factor", f.speed.factor(stretch{Start: lr.began, End: f.speed.now()}), "ratio")
	put("bench.trace_overhead_pct", 100*ratio(med("dsqzd.POST /query", 1e3)-httpPoint, httpPoint), "%")
	return m
}

// buildSeconds reads the build time run.sh recorded; 0 when the binaries
// were built some other way.
func buildSeconds(outDir string) float64 {
	b, err := os.ReadFile(filepath.Join(outDir, "build_s"))
	if err != nil {
		return 0
	}
	v, _ := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
	return v
}
