package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestTrainSpeedup(t *testing.T) {
	dir := t.TempDir()
	orig, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(orig) })
	rep, err := TrainSpeedup(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatal("nil report")
	}
	if len(rep.Rows) < 2 {
		t.Fatalf("want >= 2 pool sizes, got %d rows", len(rep.Rows))
	}
	buf, err := os.ReadFile(filepath.Join(dir, "BENCH_train.json"))
	if err != nil {
		t.Fatalf("BENCH_train.json not written: %v", err)
	}
	var file trainBenchFile
	if err := json.Unmarshal(buf, &file); err != nil {
		t.Fatalf("BENCH_train.json malformed: %v", err)
	}
	if !file.WeightsIdentical {
		t.Fatal("weights not identical across pool sizes")
	}
	if !file.ArchivesIdentical {
		t.Fatal("archives not identical across Parallelism")
	}
	if len(file.Results) < 2 || file.Results[0].PoolSize != 1 {
		t.Fatalf("results = %+v", file.Results)
	}
	if file.Results[0].RowsPerSec <= 0 {
		t.Fatal("zero training throughput recorded")
	}
}
