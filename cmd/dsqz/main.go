// Command dsqz compresses and decompresses tabular CSV data with
// DeepSqueeze.
//
// Usage:
//
//	dsqz compress   -in data.csv -schema "city:cat,temp:num" -out data.dsqz [flags]
//	dsqz decompress -in data.dsqz -out data.csv [-cols city,temp] [-rows 0:1000] [-p 4] [-v]
//	dsqz query      -in data.dsqz -where "temp >= 30 AND city = 'cusco'" [-select city,temp] [-agg count,min:temp] [-v]
//	dsqz inspect    -in data.dsqz [-json]
//
// The schema flag lists column name:type pairs in file order, where type is
// "cat" (categorical) or "num" (numeric). Compression flags:
//
//	-error 0.05        relative error threshold for all numeric columns
//	-code 2            code size (representation-layer width)
//	-experts 1         number of experts
//	-rowgroup 4096     rows per archive row group (0 = default)
//	-sample 0          training sample rows (0 = full data)
//	-resbit            keep high-cardinality categoricals in the model as
//	                   stacked residual digits instead of the colfile fallback
//	-maxcard 256       alphabet size the model predicts per categorical column
//	-fallback-distinct 65536
//	                   distinct-value count above which a categorical column
//	                   falls back to direct storage (with -resbit: the
//	                   residual path removes this ceiling)
//	-fallback-ratio 0.5
//	                   near-unique ratio (distinct/rows) above which a
//	                   categorical column always falls back
//	-tune              tune code size and experts (Bayesian optimization) on
//	                   the input's first rows, at most twice the largest
//	                   tuning sample (100 000 by default), before compressing
//	-seed 1            random seed
//	-p 0               pipeline parallelism (0 = all CPUs)
//	-v                 verbose progress
//	-cpuprofile f      write a CPU profile to f (inspect with go tool pprof)
//	-memprofile f      write a heap profile to f on exit
//
// Compression streams the CSV through the row-group archive writer one
// group at a time, so peak memory is bounded by the row-group size (plus,
// with -tune, the prefix the tuner reads), not the file size. Decompression
// streams group by group through the archive reader, projection and row
// span included: groups outside the span are checksummed but not decoded.
//
// Decompression flags:
//
//	-cols a,b          decode only the named columns (projection)
//	-rows lo:hi        decode only the half-open row span, original order
//	-p 0               pipeline parallelism (0 = all CPUs)
//	-v                 one line per decoded row group: rows and wall time
//	-cpuprofile f      write a CPU profile to f
//	-memprofile f      write a heap profile to f on exit
//
// Query evaluates a filter directly against the archive, skipping row groups
// whose zone maps cannot contain a match:
//
//	-where expr        filter: = == != <> < <= > >= IN, AND/OR/NOT, parens;
//	                   strings single-quoted ('it''s' escapes a quote)
//	-select a,b        columns to return (default: all)
//	-agg list          count,min:col,max:col,sum:col — print aggregates
//	                   instead of rows
//	-limit n           cap returned rows
//	-out f             write matching rows as CSV to f (default: stdout)
//	-v                 per-stage report plus groups-pruned / bytes-skipped
//
// SIGINT/SIGTERM cancel an in-flight compression cleanly: the staged
// pipeline returns promptly with the context's error and no partial
// archive is left behind (the output file is only written on success).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"
	"time"

	"deepsqueeze"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch os.Args[1] {
	case "compress":
		err = runCompress(ctx, os.Args[2:])
	case "decompress":
		err = runDecompress(ctx, os.Args[2:])
	case "query":
		err = runQuery(ctx, os.Args[2:])
	case "inspect":
		err = runInspect(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "dsqz: interrupted")
		os.Exit(130)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsqz:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: dsqz {compress|decompress|query|inspect} [flags]")
	fmt.Fprintln(os.Stderr, "run 'dsqz <subcommand> -h' for flags")
}

// startProfiles begins CPU profiling into cpu and returns a stop function
// that finalizes it and snapshots the heap into mem; either path may be
// empty. The stop function must run on every exit path so the profiles are
// complete — profiled work is wrapped in a closure, not deferred past it.
func startProfiles(cpu, mem string) (func() error, error) {
	var cf *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cf = f
	}
	return func() error {
		if cf != nil {
			pprof.StopCPUProfile()
			if err := cf.Close(); err != nil {
				return err
			}
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // capture live heap, not transient garbage
			return pprof.WriteHeapProfile(f)
		}
		return nil
	}, nil
}

// withProfiles runs body between startProfiles and its stop function,
// surfacing the first error of the two.
func withProfiles(cpu, mem string, body func() error) error {
	stop, err := startProfiles(cpu, mem)
	if err != nil {
		return err
	}
	err = body()
	if perr := stop(); err == nil {
		err = perr
	}
	return err
}

// parseSchema parses "name:cat,name:num,..." descriptors.
func parseSchema(s string) (*deepsqueeze.Schema, error) {
	if s == "" {
		return nil, fmt.Errorf("missing -schema (e.g. \"city:cat,temp:num\")")
	}
	var cols []deepsqueeze.Column
	for _, part := range strings.Split(s, ",") {
		name, typ, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("bad schema entry %q (want name:cat or name:num)", part)
		}
		switch typ {
		case "cat":
			cols = append(cols, deepsqueeze.Column{Name: name, Type: deepsqueeze.Categorical})
		case "num":
			cols = append(cols, deepsqueeze.Column{Name: name, Type: deepsqueeze.Numeric})
		default:
			return nil, fmt.Errorf("bad column type %q in %q (want cat or num)", typ, part)
		}
	}
	return deepsqueeze.NewSchema(cols...), nil
}

func runCompress(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	in := fs.String("in", "", "input CSV file")
	out := fs.String("out", "", "output archive file")
	schemaStr := fs.String("schema", "", "column schema: name:cat|num, comma separated")
	errThr := fs.Float64("error", 0, "relative error threshold for numeric columns (0 = lossless)")
	code := fs.Int("code", 2, "code size")
	experts := fs.Int("experts", 1, "number of experts")
	rowgroup := fs.Int("rowgroup", 0, "rows per archive row group (0 = default)")
	sample := fs.Int("sample", 0, "training sample rows (0 = all)")
	resbit := fs.Bool("resbit", false, "keep high-cardinality categorical columns in the model as stacked residual digits instead of the colfile fallback")
	maxcard := fs.Int("maxcard", 0, "alphabet size the model predicts per categorical column (0 = default 256)")
	fbDistinct := fs.Int("fallback-distinct", 0, "distinct-value ceiling for in-model categoricals (0 = default 65536)")
	fbRatio := fs.Float64("fallback-ratio", 0, "near-unique distinct/rows ratio above which categoricals fall back (0 = default 0.5)")
	tune := fs.Bool("tune", false, "run hyperparameter tuning before compressing")
	seed := fs.Int64("seed", 1, "random seed")
	parallel := fs.Int("p", 0, "pipeline parallelism (0 = all CPUs)")
	verbose := fs.Bool("v", false, "verbose progress")
	cpuprof := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprof := fs.String("memprofile", "", "write a heap profile to this file on exit")
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("compress needs -in and -out")
	}
	schema, err := parseSchema(*schemaStr)
	if err != nil {
		return err
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	opts := deepsqueeze.DefaultOptions()
	opts.CodeSize = *code
	opts.NumExperts = *experts
	opts.RowGroupSize = *rowgroup
	opts.TrainSampleRows = *sample
	opts.Seed = *seed
	opts.Parallelism = *parallel
	opts.Preproc.ResidualCats = *resbit
	if *maxcard != 0 {
		if *maxcard < 1 {
			return fmt.Errorf("bad -maxcard %d (want a positive alphabet size)", *maxcard)
		}
		opts.Preproc.MaxModelCardinality = *maxcard
	}
	if *fbDistinct != 0 {
		if *fbDistinct < 1 {
			return fmt.Errorf("bad -fallback-distinct %d (want a positive distinct-value ceiling)", *fbDistinct)
		}
		opts.Preproc.FallbackMaxDistinct = *fbDistinct
	}
	if *fbRatio != 0 {
		if *fbRatio < 0 || *fbRatio > 1 {
			return fmt.Errorf("bad -fallback-ratio %v (want a fraction in (0, 1])", *fbRatio)
		}
		opts.Preproc.FallbackDistinctRatio = *fbRatio
	}
	if *verbose {
		opts.Verbose = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		}
	}
	return withProfiles(*cpuprof, *memprof, func() error {
		return compressStream(ctx, f, *out, schema, *errThr, opts, *tune)
	})
}

// countReader counts raw bytes consumed from the input CSV.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// writeAtomic is how every command writes a file it was asked for: body
// writes it, buffered, as path+".tmp", and it takes the name path only once
// body has returned nil and the bytes are synced. A failure or an interrupt
// therefore never truncates a file already at path, nor leaves a plausible
// partial one under that name or the temporary one.
func writeAtomic(path string, body func(w io.Writer) error) (err error) {
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	bw := bufio.NewWriterSize(f, 1<<20)
	if err = body(bw); err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// compressStream pipes the CSV through the row-group archive writer one
// chunk at a time. With tune, the options are first tuned on a prefix of the
// input — the writer trains on its first row group, so a prefix is what the
// model sees — and the prefix is then written ahead of the rest.
func compressStream(ctx context.Context, f *os.File, out string, schema *deepsqueeze.Schema, errThr float64, opts deepsqueeze.Options, tune bool) error {
	thresholds := make([]float64, schema.NumColumns())
	for i, c := range schema.Columns {
		if c.Type == deepsqueeze.Numeric {
			thresholds[i] = errThr
		}
	}
	cr := &countReader{r: bufio.NewReaderSize(f, 1<<20)}
	sc, err := deepsqueeze.NewCSVScanner(cr, schema)
	if err != nil {
		return err
	}
	prefix := deepsqueeze.NewTable(schema, 0)
	if tune {
		topts := deepsqueeze.DefaultTuneOptions()
		topts.Base = opts
		// The tuner reads no more than twice its largest sample.
		if prefix, err = sc.ReadChunk(2 * slices.Max(topts.Samples)); err == io.EOF {
			prefix, err = deepsqueeze.NewTable(schema, 0), nil
		}
		if err != nil {
			return err
		}
		tres, err := deepsqueeze.TuneContext(ctx, prefix, thresholds, topts)
		if err != nil {
			return fmt.Errorf("tuning: %w", err)
		}
		opts = tres.Best // the tuned fields over opts, -rowgroup included
		fmt.Fprintf(os.Stderr, "tuned on %d rows: code=%d experts=%d sample=%d (%d trials)\n",
			prefix.NumRows(), opts.CodeSize, opts.NumExperts, opts.TrainSampleRows, len(tres.Trials))
	}
	chunkRows := opts.RowGroupSize
	if chunkRows <= 0 {
		chunkRows = 4096
	}
	var aw *deepsqueeze.ArchiveWriter
	err = writeAtomic(out, func(w io.Writer) (err error) {
		if aw, err = deepsqueeze.NewArchiveWriter(w, schema, thresholds, opts); err != nil {
			return err
		}
		if err := aw.Write(prefix); err != nil {
			return err
		}
		for {
			if err := ctx.Err(); err != nil {
				return err
			}
			chunk, err := sc.ReadChunk(chunkRows)
			if err == io.EOF {
				return aw.Close()
			}
			if err != nil {
				return err
			}
			if err := aw.Write(chunk); err != nil {
				return err
			}
		}
	})
	if err != nil {
		return err
	}
	stats := aw.Stats()
	ratio := 0.0
	if cr.n > 0 {
		ratio = 100 * float64(stats.BytesWritten) / float64(cr.n)
	}
	fmt.Printf("compressed %d rows in %d row group(s): %d → %d bytes (%.2f%%)\n",
		stats.Rows, stats.Groups, cr.n, stats.BytesWritten, ratio)
	return nil
}

// printStages renders the per-stage pipeline report (query -v).
func printStages(stages []deepsqueeze.StageStats) {
	fmt.Fprintln(os.Stderr, "pipeline stages:")
	for _, st := range stages {
		if st.Bytes > 0 {
			fmt.Fprintf(os.Stderr, "  %-18s %12v %10d bytes\n", st.Name, st.Wall.Round(time.Microsecond), st.Bytes)
		} else {
			fmt.Fprintf(os.Stderr, "  %-18s %12v\n", st.Name, st.Wall.Round(time.Microsecond))
		}
	}
}

func runDecompress(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("decompress", flag.ExitOnError)
	in := fs.String("in", "", "input archive file")
	out := fs.String("out", "", "output CSV file")
	cols := fs.String("cols", "", "comma-separated column names to decode (default: all)")
	rows := fs.String("rows", "", "row span lo:hi (half-open, original order; default: all)")
	parallel := fs.Int("p", 0, "pipeline parallelism (0 = all CPUs)")
	verbose := fs.Bool("v", false, "one line per decoded row group: rows and wall time")
	cpuprof := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprof := fs.String("memprofile", "", "write a heap profile to this file on exit")
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("decompress needs -in and -out")
	}
	// Flags are validated before any file IO: a reversed or negative row
	// span can never be satisfied, so it fails here rather than after the
	// archive has been read.
	opts := deepsqueeze.DecompressOptions{Parallelism: *parallel}
	if *cols != "" {
		for _, name := range strings.Split(*cols, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				return fmt.Errorf("bad -cols %q (empty column name)", *cols)
			}
			opts.Columns = append(opts.Columns, name)
		}
	}
	if *rows != "" {
		rr, err := parseRowRange(*rows)
		if err != nil {
			return err
		}
		opts.RowRange = &rr
	}
	return withProfiles(*cpuprof, *memprof, func() error {
		return decompressStream(ctx, *in, *out, opts, *verbose)
	})
}

// parseRowRange parses a "lo:hi" half-open row span and rejects spans that
// can never select anything (negative bounds, hi < lo) before any IO runs.
func parseRowRange(s string) (deepsqueeze.RowRange, error) {
	lo, hi, ok := strings.Cut(s, ":")
	var rr deepsqueeze.RowRange
	if ok {
		_, errLo := fmt.Sscanf(lo, "%d", &rr.Lo)
		_, errHi := fmt.Sscanf(hi, "%d", &rr.Hi)
		if errLo != nil || errHi != nil {
			ok = false
		}
	}
	if !ok {
		return rr, fmt.Errorf("bad -rows %q (want lo:hi, e.g. 1000:2000)", s)
	}
	if rr.Lo < 0 || rr.Hi < 0 {
		return rr, fmt.Errorf("bad -rows %q (negative bound)", s)
	}
	if rr.Hi < rr.Lo {
		return rr, fmt.Errorf("bad -rows %q (reversed range: hi < lo)", s)
	}
	return rr, nil
}

// archiveErr attributes corruption-class failures to the archive file, so
// logs spanning many archives stay attributable. Other errors (bad flags,
// unknown columns, cancellation) already name their cause and pass through.
func archiveErr(path string, err error) error {
	if err != nil && errors.Is(err, deepsqueeze.ErrCorrupt) {
		return fmt.Errorf("%s: %w", path, err)
	}
	return err
}

// decompressStream reads the archive group by group and appends each
// selected group's rows to the output CSV, so peak memory is one row group.
// The reader verifies the footer, the archive checksum and a row span's end
// only after the last group, by which time every row has been written: the
// CSV takes its name only once all three have (writeAtomic).
func decompressStream(ctx context.Context, in, out string, opts deepsqueeze.DecompressOptions, verbose bool) error {
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	ar, err := deepsqueeze.NewArchiveReader(bufio.NewReaderSize(f, 1<<20), opts)
	if err != nil {
		return archiveErr(in, err)
	}
	var rows, groups int
	err = writeAtomic(out, func(w io.Writer) error {
		cw := deepsqueeze.NewCSVWriter(w, ar.Schema())
		for {
			if err := ctx.Err(); err != nil {
				return err
			}
			t0 := time.Now()
			g, err := ar.Next()
			wait := time.Since(t0)
			if err == io.EOF {
				return cw.Flush()
			}
			if err != nil {
				return archiveErr(in, err)
			}
			if err := cw.WriteTable(g); err != nil {
				return err
			}
			rows += g.NumRows()
			groups++
			if verbose {
				// The reader decodes each group while the caller writes the
				// one before it, so Next mostly waits; the group's own
				// decode time is the sum of its stages.
				var decode time.Duration
				for _, st := range ar.Stages() {
					decode += st.Wall
				}
				fmt.Fprintf(os.Stderr, "group %d: %d rows, decoded in %v, waited %v in Next\n", groups-1, g.NumRows(),
					decode.Round(time.Microsecond), wait.Round(time.Microsecond))
			}
		}
	})
	if err != nil {
		return err
	}
	fmt.Printf("decompressed %d rows in %d row group(s) to %s\n", rows, groups, out)
	return nil
}

func runQuery(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	in := fs.String("in", "", "input archive file")
	where := fs.String("where", "", "filter expression, e.g. \"seq >= 100 AND tag = 'hot'\"")
	sel := fs.String("select", "", "comma-separated columns to return (default: all)")
	agg := fs.String("agg", "", "aggregates: count,min:col,max:col,sum:col (switches to aggregate output)")
	limit := fs.Int("limit", 0, "cap returned rows (0 = no cap)")
	out := fs.String("out", "", "output CSV file (default: stdout)")
	parallel := fs.Int("p", 0, "pipeline parallelism (0 = all CPUs)")
	verbose := fs.Bool("v", false, "per-stage report + pruning statistics")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("query needs -in")
	}
	opts := deepsqueeze.QueryOptions{Parallelism: *parallel, Limit: *limit}
	if *where != "" {
		p, err := deepsqueeze.ParsePredicate(*where)
		if err != nil {
			return err
		}
		opts.Where = p
	}
	if *sel != "" {
		for _, name := range strings.Split(*sel, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				return fmt.Errorf("bad -select %q (empty column name)", *sel)
			}
			opts.Select = append(opts.Select, name)
		}
	}
	if *agg != "" {
		aggs, err := parseAggs(*agg)
		if err != nil {
			return err
		}
		opts.Aggs = aggs
	}
	a, err := deepsqueeze.OpenFile(*in)
	if err != nil {
		return err
	}
	res, err := deepsqueeze.QueryArchive(ctx, a, opts)
	if err != nil {
		return archiveErr(*in, err)
	}
	if *verbose {
		printStages(res.Stages)
		fmt.Fprintf(os.Stderr, "row groups: %d of %d pruned by zone maps, %d archive bytes skipped\n",
			res.GroupsPruned, res.GroupsTotal, res.BytesSkipped)
	}
	if len(opts.Aggs) > 0 {
		for _, a := range res.Aggregates {
			if a.Op.Kind == deepsqueeze.AggCount {
				fmt.Printf("count = %d\n", int64(a.Value))
			} else {
				fmt.Printf("%s(%s) = %g\n", a.Op.Kind, a.Op.Col, a.Value)
			}
		}
		return nil
	}
	if *out != "" {
		err = writeAtomic(*out, res.Table.WriteCSV)
	} else {
		bw := bufio.NewWriterSize(os.Stdout, 1<<20)
		if err = res.Table.WriteCSV(bw); err == nil {
			err = bw.Flush()
		}
	}
	if err != nil {
		return err
	}
	// The match summary goes to stderr so stdout stays a clean CSV stream.
	fmt.Fprintf(os.Stderr, "matched %d of %d rows\n", res.Matched, a.Rows())
	return nil
}

// parseAggs parses the -agg flag: a comma-separated list of "count",
// "min:col", "max:col", "sum:col".
func parseAggs(s string) ([]deepsqueeze.AggOp, error) {
	var out []deepsqueeze.AggOp
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		kind, col, has := strings.Cut(part, ":")
		switch strings.ToLower(kind) {
		case "count":
			if has {
				return nil, fmt.Errorf("bad -agg entry %q (count takes no column)", part)
			}
			out = append(out, deepsqueeze.AggOp{Kind: deepsqueeze.AggCount})
		case "min", "max", "sum":
			if !has || col == "" {
				return nil, fmt.Errorf("bad -agg entry %q (want %s:column)", part, kind)
			}
			k := deepsqueeze.AggMin
			switch strings.ToLower(kind) {
			case "max":
				k = deepsqueeze.AggMax
			case "sum":
				k = deepsqueeze.AggSum
			}
			out = append(out, deepsqueeze.AggOp{Kind: k, Col: col})
		default:
			return nil, fmt.Errorf("bad -agg entry %q (want count, min:col, max:col, or sum:col)", part)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -agg list")
	}
	return out, nil
}

func runInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	in := fs.String("in", "", "archive file")
	jsonOut := fs.Bool("json", false, "machine-readable JSON output (the same summary dsqzd's /archives serves)")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("inspect needs -in")
	}
	a, err := deepsqueeze.OpenFile(*in)
	if err != nil {
		return err
	}
	info := a.Info()
	streams, err := a.StreamStats()
	if err != nil {
		return archiveErr(*in, err)
	}
	if *jsonOut {
		sum := info.Summary()
		sum.Path = *in
		sum.Streams = deepsqueeze.StreamSummaries(streams)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(sum)
	}
	fmt.Printf("archive: format v%d, %d bytes\nrows: %d\n", info.Version, info.TotalBytes, info.Rows)
	fmt.Printf("model: code size %d (%d-bit codes), %d expert(s)\n",
		info.CodeSize, info.CodeBits, info.NumExperts)
	if info.Streaming {
		fmt.Println("streaming batch archive: decompress with its model archive")
	}
	if info.Float32Decode {
		fmt.Println("float32 decode plan (corrections computed against float32 inference)")
	}
	if !info.RowOrderPreserved {
		fmt.Println("row order not preserved (order-free grouped storage)")
	}
	fmt.Printf("column kinds: %s\n", kindCensus(info.KindCensus))
	fmt.Println("columns:")
	for i, c := range info.Schema.Columns {
		fmt.Printf("  %-24s %-11v %s\n", c.Name, c.Type, info.ColumnKind[i])
	}
	if len(info.Groups) > 0 {
		fmt.Printf("row groups: %d (target %d rows/group)\n", len(info.Groups), info.RowGroupSize)
		fmt.Printf("  %5s  %-17s %9s %9s %9s %9s\n", "group", "rows", "segment", "codes", "mapping", "failures")
		for i, g := range info.Groups {
			span := fmt.Sprintf("[%d:%d)", g.RowStart, g.RowStart+g.RowCount)
			fmt.Printf("  %5d  %-17s %9d %9d %9d %9d\n",
				i, span, g.SegmentBytes, g.CodesBytes, g.MappingBytes, g.FailureBytes)
		}
	}
	if len(streams) > 0 {
		fmt.Println("streams (all groups):")
		fmt.Printf("  %-24s %-10s %9s %9s %6s  %s\n", "column", "stream", "frame", "raw", "ratio", "codecs")
		for _, st := range streams {
			col := st.Column
			if col == "" {
				col = "-"
			}
			ratio := 1.0
			if st.RawBytes > 0 {
				ratio = float64(st.FrameBytes) / float64(st.RawBytes)
			}
			fmt.Printf("  %-24s %-10s %9d %9d %5.1f%%  %s\n",
				col, st.Stream, st.FrameBytes, st.RawBytes, 100*ratio, codecHistogram(st.Codecs))
		}
	}
	return nil
}

// kindCensus renders the per-kind column counts in a fixed kind order so
// output is deterministic ("categorical×3 residual×1 fallback-categorical×2").
func kindCensus(census map[string]int) string {
	var parts []string
	for _, kind := range []string{
		"categorical", "binary", "residual", "quantized", "numdict",
		"continuous", "fallback-categorical", "fallback-numeric",
	} {
		if n := census[kind]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s×%d", kind, n))
		}
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, " ")
}

// codecHistogram renders a stream's codec-choice tally ("deflate×3
// range-adaptive×5") in a fixed name order so output is deterministic.
func codecHistogram(codecs map[string]int) string {
	var parts []string
	for _, name := range []string{"stored", "deflate", "range-adaptive", "range-cpt"} {
		if n := codecs[name]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s×%d", name, n))
		}
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, " ")
}
