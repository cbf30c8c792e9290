package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

var testCfg config

// TestMain builds dsqzd once into a temporary directory that also serves as
// the benchmark's scratch directory.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "benchmarks-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	testCfg = config{seed: 1, rounds: 1, setups: 1, tiny: true, dsqzd: filepath.Join(dir, "dsqzd"), outDir: dir}
	build := exec.Command("go", "build", "-o", testCfg.dsqzd, "deepsqueeze/cmd/dsqzd")
	build.Stderr = os.Stderr
	code := 1
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "build dsqzd:", err)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// checkMetrics requires exactly the spec's names, each with the spec's unit
// and a finite value.
func checkMetrics(t *testing.T, got map[string]metric, want []metricSpec) {
	t.Helper()
	seen := make(map[string]bool)
	for _, m := range want {
		if seen[m.Name] {
			t.Errorf("BENCHMARK.json lists %s twice", m.Name)
		}
		seen[m.Name] = true
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("metric %s not emitted", m.Name)
			continue
		}
		if g.Unit != m.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
		}
		if g.Value != g.Value || g.Value > 1e300 || g.Value < -1e300 {
			t.Errorf("metric %s = %v", m.Name, g.Value)
		}
	}
	for name := range got {
		if !seen[name] {
			t.Errorf("metric %s emitted but not in BENCHMARK.json", name)
		}
	}
}

func TestSmoke(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	ratio := make(map[string]float64)
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
		cfg := testCfg
		cfg.workload = w.name

		start := time.Now()
		res, err := runWorkload(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s end to end: %v", w.name, time.Since(start))
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
		}
		checkMetrics(t, res.Metrics, spec.EndToEnd)
		for _, m := range spec.EndToEnd {
			if res.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, m.Name, res.Metrics[m.Name].Value)
			}
		}
		ratio[w.name] = res.Metrics["ratio_pct"].Value

		cfg.trace = true
		start = time.Now()
		res, err = runWorkload(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s traced: %v", w.name, time.Since(start))
		if !res.Correct {
			t.Errorf("%s traced: %d of %d operations failed", w.name, res.Failed, res.Attempted)
		}
		checkMetrics(t, res.Metrics, spec.PerLayer)
		checkTrace(t, filepath.Join(cfg.outDir, "trace-"+w.name+".json"))
	}
	if ratio["serve-pruned"] != ratio["serve-cached"] {
		t.Errorf("ratio_pct: serve-pruned %v, serve-cached %v; the same archive must give the same ratio",
			ratio["serve-pruned"], ratio["serve-cached"])
	}
}

// checkTrace requires every span to end after it starts, to lie inside an
// operation, and the children of a span never to take longer than the span.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	children := make([]int64, len(doc.Spans))
	for i, s := range doc.Spans {
		if s.End < s.Start {
			t.Errorf("span %d %s ends before it starts", i, s.Name)
		}
		if s.Parent >= i {
			t.Errorf("span %d %s has parent %d", i, s.Name, s.Parent)
		} else if s.Parent >= 0 {
			if doc.Spans[s.Parent].Op != s.Op {
				t.Errorf("span %d %s is in operation %d, its parent in %d", i, s.Name, s.Op, doc.Spans[s.Parent].Op)
			}
			children[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range doc.Spans {
		if children[i] > s.End-s.Start {
			t.Errorf("span %d %s lasts %d ns, its children %d ns", i, s.Name, s.End-s.Start, children[i])
		}
	}
}

func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
	v := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got, want := iqrShare(v), (8.25-2.75)/5.5; got != want {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}
