// Streaming archival: the paper's second usage scenario (§3). A fleet of
// vehicles sends one upload window a day; an ArchiveWriter trains the model
// once, on day 0's row group, and every later day becomes a row group that
// re-fits only the cheap preprocessing (dictionaries, scalers, quantizers)
// and reuses the trained experts. When the data distribution drifts,
// failure streams grow — the retraining signal.
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"math/rand"

	"deepsqueeze"
)

func vehicleSchema() *deepsqueeze.Schema {
	return deepsqueeze.NewSchema(
		deepsqueeze.Column{Name: "gear", Type: deepsqueeze.Categorical},
		deepsqueeze.Column{Name: "braking", Type: deepsqueeze.Categorical},
		deepsqueeze.Column{Name: "speed_kmh", Type: deepsqueeze.Numeric},
		deepsqueeze.Column{Name: "rpm", Type: deepsqueeze.Numeric},
		deepsqueeze.Column{Name: "engine_temp", Type: deepsqueeze.Numeric},
	)
}

// batch simulates one upload window; drift skews the speed distribution
// (e.g. the fleet moves from city to highway driving).
func batch(rows int, seed int64, drift float64) *deepsqueeze.Table {
	t := deepsqueeze.NewTable(vehicleSchema(), rows)
	rng := rand.New(rand.NewSource(seed))
	gears := []string{"1", "2", "3", "4", "5", "6"}
	for i := 0; i < rows; i++ {
		v := rng.Float64()*(1-drift) + drift // latent "speed factor"
		gear := gears[int(v*5.999)]
		braking := "0"
		if rng.Float64() < 0.1*(1-v) {
			braking = "1"
		}
		t.AppendRow(
			[]string{gear, braking},
			[]float64{
				v * 180,
				800 + v*4500 + rng.NormFloat64()*50,
				80 + v*15 + rng.NormFloat64(),
			},
		)
	}
	return t
}

// dayRows is one upload window and one row group: the writer flushes a day
// as soon as its rows arrive. Days from driftDay on come from a drifted
// distribution.
const (
	dayRows  = 2000
	driftDay = 6
)

func main() {
	thresholds := []float64{0, 0, 0.05, 0.05, 0.01}
	opts := deepsqueeze.DefaultOptions()
	opts.CodeSize = 2
	opts.Train.Epochs = 15
	opts.RowGroupSize = dayRows

	// Day 0 trains the model; then a week of upload windows, the last two
	// drifting.
	days := []*deepsqueeze.Table{batch(dayRows, 1, 0)}
	for day := int64(1); day <= 7; day++ {
		drift := 0.0
		if day >= driftDay {
			drift = 0.5
		}
		days = append(days, batch(dayRows, 100+day, drift))
	}

	var archive bytes.Buffer
	w, err := deepsqueeze.NewArchiveWriter(&archive, vehicleSchema(), thresholds, opts)
	if err != nil {
		log.Fatal(err)
	}
	for day, b := range days {
		if err := w.Write(b); err != nil {
			log.Fatalf("day %d: %v", day, err)
		}
	}
	// The writer frames a day once the next day's group fills (the last at
	// Close), so before Close its counters cover the archive prefix and the
	// days framed so far.
	framed := w.Stats()
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}

	// Each day's bytes are its segment's, from the footer index; day 0's
	// also carry the prefix (header and decoders) in front of its segment.
	info, err := deepsqueeze.Inspect(archive.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	written := make([]int64, len(days))
	prefix := framed.BytesWritten
	for day, g := range info.Groups {
		written[day] = g.SegmentBytes
		if day < framed.Groups {
			prefix -= g.SegmentBytes
		}
	}
	written[0] += prefix
	r, err := deepsqueeze.NewArchiveReader(bytes.NewReader(archive.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	var weekRaw, weekBytes int64
	for day, b := range days {
		back, err := r.Next()
		if err != nil {
			log.Fatalf("day %d: %v", day, err)
		}
		if err := deepsqueeze.VerifyBounds(b, back, thresholds); err != nil {
			log.Fatalf("day %d: bound violated: %v", day, err)
		}
		raw := b.CSVSize()
		note := ""
		switch {
		case day == 0:
			note = "  ← training group: header and decoders included"
		case day >= driftDay:
			note = "  ← drifted distribution: no retraining, bound still holds"
		}
		if day > 0 {
			weekRaw += raw
			weekBytes += written[day]
		}
		fmt.Printf("day %d: %7d → %6d bytes (%.2f%%), failures %5d bytes%s\n",
			day, raw, written[day], 100*float64(written[day])/float64(raw), info.Groups[day].FailureBytes, note)
	}
	if _, err := r.Next(); err != io.EOF {
		log.Fatalf("archive does not end after the last day: %v", err)
	}
	fmt.Printf("week total: %d → %d bytes (%.2f%%); one %d-byte archive holds all %d days\n",
		weekRaw, weekBytes, 100*float64(weekBytes)/float64(weekRaw), archive.Len(), len(days))
}
