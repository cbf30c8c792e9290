package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
)

// aaCell is one workload × end-to-end metric in the A/A report.
type aaCell struct {
	Unit       string    `json:"unit"`
	Bound      float64   `json:"bound"`
	SetMedians []float64 `json:"set_medians"`
	// SetIQR is, per set, the distance between the quartiles of the set's
	// runs as a share of their median: the run-to-run spread the driver
	// holds against the bound.
	SetIQR []float64 `json:"set_iqr_share"`
	// Spread is the range of the set medians as a share of their median.
	Spread float64 `json:"spread"`
	// OK: Spread and (except for setup_s) every SetIQR are within Bound.
	OK bool `json:"ok"`
}

// aaReport is benchmarks/results/aa.json.
type aaReport struct {
	Meta      map[string]any                `json:"meta"`
	Workloads map[string]map[string]*aaCell `json:"workloads"`
	// SharedCells compares serve-pruned with serve-cached on the cells where
	// both do exactly the same work: a second A/A check inside every set.
	SharedCells map[string]*aaCell `json:"shared_cells"`
}

// sharedCells are the metrics on which serve-pruned and serve-cached repeat
// each other's work (the daemon's cache plays no part in them).
var sharedCells = []string{"compress_mb_s", "decompress_mb_s", "ratio_pct", "query_cold_ms"}

// runSelf runs one workload in a fresh process, as the driver does. A done
// ctx interrupts the child, which then stops its own dsqzd.
func runSelf(ctx context.Context, cfg config, workload string, seed int64) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", "0")
	cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte{'\n'})
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line: %w", workload, seed, err)
	}
	return &res, nil
}

// iqrShare is the distance between the first and third quartile as a share
// of the median, with the quartiles Python's statistics.quantiles(n=4) gives
// (exclusive method).
func iqrShare(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		// Exclusive method: position p·(n+1) among 1-based order statistics.
		pos := p*float64(len(s)+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(len(s)-1) {
			return s[len(s)-1]
		}
		lo := int(math.Floor(pos))
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	return (q(0.75) - q(0.25)) / median(v)
}

// runAA runs `sets` whole run-sets of this build — each set is aaRuns seeds ×
// every workload, seeds outermost so that drift falls on all workloads alike —
// and compares the set medians with the bounds in BENCHMARK.json.
func runAA(ctx context.Context, cfg config, sets int, specPath, outPath string) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	// values[workload][metric][set] = that set's run values
	values := make(map[string]map[string][][]float64)
	for _, w := range workloads {
		values[w.name] = make(map[string][][]float64)
		for _, m := range spec.EndToEnd {
			values[w.name][m.Name] = make([][]float64, sets)
		}
	}
	for set := 0; set < sets; set++ {
		for run := 0; run < aaRuns; run++ {
			for _, w := range workloads {
				res, err := runSelf(ctx, cfg, w.name, cfg.seed+int64(run))
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
				}
				for _, m := range spec.EndToEnd {
					values[w.name][m.Name][set] = append(values[w.name][m.Name][set], res.Metrics[m.Name].Value)
				}
			}
			fmt.Fprintf(os.Stderr, "aa: set %d/%d run %d/%d done\n", set+1, sets, run+1, aaRuns)
		}
	}

	rep := &aaReport{
		Meta: map[string]any{
			"sets": sets, "runs_per_set": aaRuns, "first_seed": cfg.seed, "seconds": cfg.seconds,
			"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "num_cpu": runtime.NumCPU(), "rev": gitRev(),
		},
		Workloads:   make(map[string]map[string]*aaCell),
		SharedCells: make(map[string]*aaCell),
	}
	ok := true
	cell := func(m metricSpec, perSet [][]float64) *aaCell {
		c := &aaCell{Unit: m.Unit, Bound: m.Bound}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range perSet {
			med := median(v)
			c.SetMedians = append(c.SetMedians, med)
			c.SetIQR = append(c.SetIQR, iqrShare(v))
			lo, hi = math.Min(lo, med), math.Max(hi, med)
		}
		c.Spread = (hi - lo) / median(c.SetMedians)
		c.OK = c.Spread <= m.Bound
		// The driver also holds each set's own quartile distance against the
		// bound, except set-up time's.
		for _, iqr := range c.SetIQR {
			if m.Name != "setup_s" && iqr > m.Bound {
				c.OK = false
			}
		}
		ok = ok && c.OK
		return c
	}
	for _, w := range workloads {
		rep.Workloads[w.name] = make(map[string]*aaCell)
		for _, m := range spec.EndToEnd {
			c := cell(m, values[w.name][m.Name])
			rep.Workloads[w.name][m.Name] = c
			fmt.Printf("%-20s %-16s spread %6.2f%%  bound %5.1f%%  set IQRs %s  %s\n",
				w.name, m.Name, 100*c.Spread, 100*m.Bound, percents(c.SetIQR), verdict(c.OK))
		}
	}
	// ratio_pct is a count, not a timing: whatever its bound allows between
	// seeds, the same seed must give the same bytes in every set.
	for _, w := range workloads {
		for set, v := range values[w.name]["ratio_pct"] {
			for run := range v {
				if v[run] != values[w.name]["ratio_pct"][0][run] {
					fmt.Printf("%-20s %-16s seed %d: set 1 gave %v, set %d gave %v  %s\n", w.name, "ratio_pct",
						cfg.seed+int64(run), values[w.name]["ratio_pct"][0][run], set+1, v[run], verdict(false))
					ok = false
				}
			}
		}
	}
	for _, m := range spec.EndToEnd {
		for _, name := range sharedCells {
			if m.Name != name {
				continue
			}
			// One "set" per workload, pooled over every A/A set.
			var pruned, cached []float64
			for set := 0; set < sets; set++ {
				pruned = append(pruned, values["serve-pruned"][name][set]...)
				cached = append(cached, values["serve-cached"][name][set]...)
			}
			c := cell(m, [][]float64{pruned, cached})
			rep.SharedCells[name] = c
			fmt.Printf("%-20s %-16s spread %6.2f%%  bound %5.1f%%  %s\n", "pruned-vs-cached", name, 100*c.Spread, 100*m.Bound, verdict(c.OK))
		}
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "aa: wrote %s\n", outPath)
	if !ok {
		return fmt.Errorf("A/A spread exceeds a bound")
	}
	return nil
}

func verdict(ok bool) string {
	if ok {
		return "ok"
	}
	return "EXCEEDS BOUND"
}

func percents(v []float64) string {
	var b bytes.Buffer
	for i, x := range v {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.2f%%", 100*x)
	}
	return b.String()
}
