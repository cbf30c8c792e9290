package query

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"deepsqueeze/internal/core"
)

// f32Pred is randPred over the schema of core's committed float32-plan
// golden (cat, bin, m1, m2, grade; m1 and m2 span about [9, 91], grade is
// 0–4).
func f32Pred(rng *rand.Rand, depth int) Pred {
	if depth > 0 && rng.Float64() < 0.6 {
		switch rng.Intn(3) {
		case 0:
			return And(f32Pred(rng, depth-1), f32Pred(rng, depth-1))
		case 1:
			return Or(f32Pred(rng, depth-1), f32Pred(rng, depth-1))
		default:
			return Not(f32Pred(rng, depth-1))
		}
	}
	switch rng.Intn(6) {
	case 0:
		return Ge("m1", rng.Float64()*100)
	case 1:
		return Lt("m2", rng.Float64()*100)
	case 2:
		return Eq("grade", float64(rng.Intn(6)))
	case 3:
		return Eq("cat", []string{"a", "b", "c", "d", "e"}[rng.Intn(5)])
	case 4:
		return Eq("bin", []string{"0", "1"}[rng.Intn(2)])
	default:
		return In("grade", float64(rng.Intn(5)), float64(rng.Intn(5)))
	}
}

// TestQueryFloat32Equivalence extends the engine's core contract to float32
// archives: queries over the committed float32-plan golden decode through the
// f32 kernel path (the archive flag mandates it) yet must return byte-for-byte
// the rows a full decompress-then-filter produces, at parallelism 1, 4, and
// NumCPU.
func TestQueryFloat32Equivalence(t *testing.T) {
	archive, err := os.ReadFile(filepath.Join("..", "core", "testdata", "f32_v2.dsqz"))
	if err != nil {
		t.Fatal(err)
	}
	info, err := core.Inspect(archive)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Float32Decode {
		t.Fatal("fixture does not carry the float32 plan flag")
	}
	full, err := core.Decompress(archive)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(68))
	for trial := 0; trial < 20; trial++ {
		p := f32Pred(rng, 2)
		want := naiveMatches(t, p, full)
		wantCSV := tableCSV(t, full.Sample(want))
		for _, par := range []int{1, 4, runtime.NumCPU()} {
			res, err := Run(archive, Options{Where: p, Parallelism: par})
			if err != nil {
				t.Fatalf("trial %d (%s) p=%d: %v", trial, p, par, err)
			}
			if res.Matched != len(want) {
				t.Fatalf("trial %d (%s) p=%d: matched %d rows, naive says %d",
					trial, p, par, res.Matched, len(want))
			}
			if got := tableCSV(t, res.Table); !bytes.Equal(got, wantCSV) {
				t.Fatalf("trial %d (%s) p=%d: result differs from decompress-then-filter",
					trial, p, par)
			}
		}
	}
}
