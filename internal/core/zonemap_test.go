package core

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"deepsqueeze/internal/dataset"
	"deepsqueeze/internal/preprocess"
)

// zoneContains reports whether a decoded value is admitted by a zone map,
// translating encoded-domain bounds through the header plan the same way the
// query planner does.
func zoneContains(z *ZoneMap, cp *preprocess.ColPlan, sv string, nv float64, isStr bool) (bool, error) {
	switch z.Kind {
	case ZoneNone:
		return true, nil
	case ZoneBitmap:
		c, ok := cp.Dict.Code(sv)
		if !ok {
			c = cp.Dict.Len() // overflow bit
		}
		return z.Bit(c), nil
	case ZoneIntRange:
		if isStr {
			c, ok := cp.Dict.Code(sv)
			return ok && int64(c) >= z.Min && int64(c) <= z.Max, nil
		}
		switch cp.Kind {
		case preprocess.KindNumQuant:
			b := int64(cp.Quant.Bucket(cp.Scaler.Scale(nv)))
			return b >= z.Min && b <= z.Max, nil
		case preprocess.KindNumDict:
			r, ok := cp.VDict.Rank(nv)
			return ok && int64(r) >= z.Min && int64(r) <= z.Max, nil
		}
		return false, fmt.Errorf("int zone on kind %v", cp.Kind)
	case ZoneFloatRange:
		return nv >= z.FMin && nv <= z.FMax, nil
	}
	return false, fmt.Errorf("zone kind %d", z.Kind)
}

// checkZoneSoundness decodes every group of the archive and asserts each
// decoded value is admitted by its group × column zone map — the property
// group pruning relies on.
func checkZoneSoundness(t *testing.T, archive []byte) {
	t.Helper()
	idx, err := ReadIndex(archive)
	if err != nil {
		t.Fatal(err)
	}
	if !idx.HasZoneMaps {
		t.Fatal("archive has no zone maps")
	}
	full, err := Decompress(archive)
	if err != nil {
		t.Fatal(err)
	}
	for gi, g := range idx.Groups {
		if g.Zones == nil {
			t.Fatalf("group %d has no zones", gi)
		}
		for col := range idx.Plan.Cols {
			z := &g.Zones[col]
			cp := &idx.Plan.Cols[col]
			isStr := idx.Plan.Schema.Columns[col].Type == dataset.Categorical
			for r := g.Start; r < g.Start+g.Count; r++ {
				var sv string
				var nv float64
				if isStr {
					sv = full.Str[col][r]
				} else {
					nv = full.Num[col][r]
				}
				ok, err := zoneContains(z, cp, sv, nv, isStr)
				if err != nil {
					t.Fatalf("group %d column %d: %v", gi, col, err)
				}
				if !ok {
					t.Fatalf("group %d column %d row %d: decoded value %q/%v outside zone %+v",
						gi, col, r, sv, nv, *z)
				}
			}
		}
	}
}

// TestZoneMapSoundness compresses a multi-group table with default options
// and checks every decoded value lands inside its group's zones.
func TestZoneMapSoundness(t *testing.T) {
	tb := latentTable(600, 41)
	res, err := Compress(tb, []float64{0, 0, 0.05, 0.05, 0}, groupOpts(100, 2))
	if err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(res.Archive)
	if err != nil {
		t.Fatal(err)
	}
	if !info.HasZoneMaps {
		t.Fatal("default compression did not emit zone maps")
	}
	checkZoneSoundness(t, res.Archive)
}

// TestZoneMapSoundnessContinuous covers the no-quantization ablation, whose
// zones must absorb the lossy reconstruction error.
func TestZoneMapSoundnessContinuous(t *testing.T) {
	opts := groupOpts(100, 1)
	opts.Preproc.NoQuantization = true
	res, err := Compress(latentTable(400, 42), []float64{0, 0, 0.05, 0.05, 0}, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkZoneSoundness(t, res.Archive)
}

// TestZoneMapsDisabled checks the opt-out: no flag, no stats chunk, no
// zones — and the archive still round-trips.
func TestZoneMapsDisabled(t *testing.T) {
	tb := latentTable(300, 43)
	opts := groupOpts(100, 1)
	opts.NoZoneMaps = true
	res, err := Compress(tb, []float64{0, 0, 0.05, 0.05, 0}, opts)
	if err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(res.Archive)
	if err != nil {
		t.Fatal(err)
	}
	if info.HasZoneMaps {
		t.Fatal("NoZoneMaps archive reports zone maps")
	}
	idx, err := ReadIndex(res.Archive)
	if err != nil {
		t.Fatal(err)
	}
	if idx.HasZoneMaps || idx.Groups[0].Zones != nil {
		t.Fatal("NoZoneMaps archive yields zones")
	}
	if _, err := Decompress(res.Archive); err != nil {
		t.Fatal(err)
	}
}

// TestZoneMapsStreaming drives the streaming writer across re-fit groups —
// including categorical values the training group never saw — and checks the
// stats chunk stays sound and the archive readable by both decode paths.
func TestZoneMapsStreaming(t *testing.T) {
	schema := dataset.NewSchema(
		dataset.Column{Name: "tag", Type: dataset.Categorical},
		dataset.Column{Name: "val", Type: dataset.Numeric},
	)
	tb := dataset.NewTable(schema, 300)
	for i := 0; i < 300; i++ {
		tag := fmt.Sprintf("t%d", i%3)
		if i >= 200 {
			tag = fmt.Sprintf("new%d", i%2) // unseen by the training group
		}
		tb.AppendRow([]string{tag}, []float64{float64(i%50) + float64(i)/1000})
	}
	opts := quickOpts()
	opts.Train.Epochs = 2
	opts.RowGroupSize = 100
	var buf bytes.Buffer
	aw, err := NewArchiveWriter(&buf, schema, []float64{0, 0.05}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := aw.Write(tb); err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	archive := buf.Bytes()
	checkZoneSoundness(t, archive)

	idx, err := ReadIndex(archive)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Groups) != 3 {
		t.Fatalf("%d groups, want 3", len(idx.Groups))
	}
	// The third group's tags are all outside the training dictionary: its
	// bitmap must be exactly the overflow bit.
	z := idx.Groups[2].Zones[0]
	if z.Kind != ZoneBitmap {
		t.Fatalf("tag zone kind %d, want bitmap", z.Kind)
	}
	if !z.Bit(z.NBits - 1) {
		t.Fatal("overflow bit unset for unseen tags")
	}
	for c := 0; c < z.NBits-1; c++ {
		if z.Bit(c) {
			t.Fatalf("dictionary bit %d set in an all-unseen group", c)
		}
	}

	// The streaming reader must also accept the stats chunk.
	ar, err := NewArchiveReader(bytes.NewReader(archive))
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for {
		gt, err := ar.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rows += gt.NumRows()
	}
	if rows != 300 {
		t.Fatalf("streamed %d rows, want 300", rows)
	}
}

// TestZoneStatsPayloadRoundTrip round-trips a handcrafted stats payload
// through the serializer and the strict parser.
func TestZoneStatsPayloadRoundTrip(t *testing.T) {
	tb := latentTable(50, 44)
	plan, err := preprocess.Fit(tb, preprocess.DefaultOptions(), []float64{0, 0, 0.05, 0.05, 0})
	if err != nil {
		t.Fatal(err)
	}
	perm := make([]int, tb.NumRows())
	for i := range perm {
		perm[i] = i
	}
	zones := [][]ZoneMap{
		computeGroupZones(tb, perm[:25], plan, plan),
		computeGroupZones(tb, perm[25:], plan, plan),
	}
	payload := appendZoneStatsPayload(nil, zones)
	got, err := parseZoneStats(payload, plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	for g := range zones {
		for c := range zones[g] {
			w, h := zones[g][c], got[g][c]
			if w.Kind != h.Kind || w.Min != h.Min || w.Max != h.Max ||
				w.FMin != h.FMin || w.FMax != h.FMax || w.NBits != h.NBits ||
				!bytes.Equal(w.Bits, h.Bits) {
				t.Fatalf("group %d column %d: wrote %+v, parsed %+v", g, c, w, h)
			}
		}
	}
	// The strict parser must reject a wrong group count and mangled kinds.
	if _, err := parseZoneStats(payload, plan, 3); err == nil {
		t.Fatal("wrong group count accepted")
	}
	bad := append([]byte(nil), payload...)
	bad[2] = 200 // first entry's kind byte
	if _, err := parseZoneStats(bad, plan, 2); err == nil {
		t.Fatal("unknown zone kind accepted")
	}
}
