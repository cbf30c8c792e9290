// Command benchmarks is the repo benchmark: four workloads, each a complete
// round trip through the product's real path — CSV bytes → NewCSVScanner +
// NewArchiveWriter → archive → NewArchiveReader + NewCSVWriter → a dsqzd
// child process queried over loopback HTTP — measured in rounds so that every
// metric is a median of samples spread over the whole run. See README.md.
//
//	benchmarks -workload serve-pruned -seed 1 -seconds 20 -trace 0
//
// prints progress on stderr and, as the last line of stdout, one JSON object
// {"correct","attempted","failed","metrics"}: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

const (
	// setups is how many times a run sets its workload up; setup_s is the
	// median.
	setups = 5
	// aaRuns is how many runs (seeds) per workload one A/A set holds: what
	// the driver's sets hold.
	aaRuns = 10
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dsqzd    string // the dsqzd binary
	outDir   string // scratch (archives, traces); benchmarks/out outside tests

	// Set by the smoke test only; the command line always measures the full
	// workloads for -seconds.
	rounds int  // > 0 fixes the round count instead of -seconds
	setups int  // set-up repetitions whose median is setup_s
	tiny   bool // smoke-test sizes
}

// result is the last-line JSON document.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	var all bool
	var aa int
	flag.StringVar(&cfg.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the table and the query constants")
	flag.Float64Var(&cfg.seconds, "seconds", 24, "measuring time; rounds repeat until it is spent")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end metrics")
	flag.BoolVar(&all, "all", false, "run every workload, untraced then traced, printing workload/name value unit")
	flag.IntVar(&aa, "aa", 0, "A/A mode: run N whole run-sets of this build and compare set medians with the bounds")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.setups = setups

	if err := cfg.resolvePaths(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		os.Exit(2)
	}
	// An interrupted benchmark stops its dsqzd child and removes its scratch
	// root on the way out (the child is started under this context).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	var err error
	switch {
	case aa > 0:
		// outDir is benchmarks/out: the contract and the committed report
		// sit beside it.
		err = runAA(ctx, cfg, aa,
			filepath.Join(cfg.outDir, "..", "..", "BENCHMARK.json"),
			filepath.Join(cfg.outDir, "..", "results", "aa.json"))
	case all:
		err = runAll(ctx, cfg)
	default:
		err = runOne(ctx, cfg)
	}
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		os.Exit(1)
	}
}

// resolvePaths finds dsqzd and the scratch directory from the binary's
// location: run.sh builds both binaries into benchmarks/out/bin.
func (cfg *config) resolvePaths() error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bin := filepath.Dir(exe)
	cfg.dsqzd = filepath.Join(bin, "dsqzd")
	cfg.outDir = filepath.Dir(bin)
	if _, err := os.Stat(cfg.dsqzd); err != nil {
		return fmt.Errorf("dsqzd binary: %w (build it with benchmarks/run.sh)", err)
	}
	return os.MkdirAll(cfg.outDir, 0o755)
}

// runOne runs one workload and prints the contract's JSON line.
func runOne(ctx context.Context, cfg config) error {
	res, err := runWorkload(ctx, cfg)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return res.failure(cfg.workload)
}

// failure is the error a run with failed operations ends in.
func (r *result) failure(workload string) error {
	if r.Correct {
		return nil
	}
	return fmt.Errorf("%s: %d of %d operations failed", workload, r.Failed, r.Attempted)
}

// runAll is run.sh's no-argument mode: every workload, end to end and then
// traced, one line per metric.
func runAll(ctx context.Context, cfg config) error {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			c := cfg
			c.workload, c.trace = w.name, trace
			res, err := runWorkload(ctx, c)
			if err != nil {
				return err
			}
			names := make([]string, 0, len(res.Metrics))
			for name := range res.Metrics {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				m := res.Metrics[name]
				fmt.Printf("%s/%s %.6g %s\n", w.name, name, m.Value, m.Unit)
			}
			if err := res.failure(w.name); err != nil {
				return err
			}
		}
	}
	return nil
}

// runWorkload sets the workload up cfg.setups times (setup_s is the median;
// the last fixture is the one measured), runs the rounds, and reduces the
// samples to metrics.
func runWorkload(ctx context.Context, cfg config) (*result, error) {
	w := workloadByName(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.tiny {
		w = w.tiny()
	}
	fmt.Fprintf(os.Stderr, "%s: seed %d, %s, gomaxprocs %d, num_cpu %d, rev %s\n",
		w.name, cfg.seed, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), gitRev())

	speed := newSpeedRef()
	samples := &e2eSamples{}
	var fix *fixture
	for i := 0; i < cfg.setups; i++ {
		if fix != nil {
			fix.close()
		}
		runtime.GC()
		speed.sample()
		f, err := setUp(ctx, w, cfg.seed, cfg.dsqzd, cfg.outDir, speed)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		samples.Setup = append(samples.Setup, f.took)
		fix = f
	}
	defer fix.close()
	speed.sample()

	t := &tally{}
	var metrics map[string]metric
	if cfg.trace {
		var err error
		if metrics, err = fix.layerMetrics(ctx, cfg, t); err != nil {
			return nil, err
		}
	} else {
		if err := fix.runRounds(ctx, cfg.seconds, cfg.rounds, samples, t); err != nil {
			return nil, err
		}
		metrics = fix.e2eMetrics(samples, true)
		raw := fix.e2eMetrics(samples, false)
		for _, name := range []string{"setup_s", "compress_mb_s", "decompress_mb_s", "query_cold_ms", "point_p50_ms", "point_p95_ms", "scan_p50_ms", "qps"} {
			fmt.Fprintf(os.Stderr, "%s: %-16s %10.4f %-4s at reference speed, %10.4f as measured\n",
				w.name, name, metrics[name].Value, metrics[name].Unit, raw[name].Value)
		}
		s := samples
		fmt.Fprintf(os.Stderr, "%s: %d rounds; samples compress %d decompress %d cold %d point %d scan %d burst %d; speed factor %.3f; csv %d bytes, archive %d bytes\n",
			w.name, s.rounds, len(s.Compress), len(s.Decompress), len(s.Cold), len(s.Point), len(s.Scan), len(s.Burst),
			speed.factor(stretch{Start: 0, End: speed.now()}), len(fix.csv), len(fix.archive))
		fmt.Fprintf(os.Stderr, "%s: dsqzd shed %d; block cache: point batches hit %d of %d lookups, %d evictions over the rounds\n",
			w.name, s.shed, s.pointBlockHits, s.pointBlockLookups, s.blockEvictions)
		// The cached workload must be the cached workload: were the hot set
		// to stop fitting it would measure serve-pruned's decode path, and
		// were the scans to stop evicting, an all-hit cache. The smoke test's
		// tables are too small to fill the budget.
		if w.blockCache > 0 && !cfg.tiny {
			t.check("block cache", s.checkCache())
		}
	}
	if t.attempted == 0 {
		return nil, fmt.Errorf("%s: nothing was measured", w.name)
	}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}, nil
}

// gitRev reports the checkout's revision when there is one (the driver's
// checkout is not a git repository).
func gitRev() string {
	if rev := os.Getenv("BENCH_GIT_REV"); rev != "" {
		return rev
	}
	return "unknown"
}
