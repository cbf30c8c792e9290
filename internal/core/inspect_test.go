package core

import "testing"

func TestInspect(t *testing.T) {
	tb := latentTable(400, 31)
	thr := []float64{0, 0, 0.1, 0.1, 0}
	opts := quickOpts()
	opts.NumExperts = 2
	res, err := Compress(tb, thr, opts)
	if err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(res.Archive)
	if err != nil {
		t.Fatal(err)
	}
	if info.Rows != 400 || info.NumExperts != 2 || info.CodeSize != opts.CodeSize {
		t.Fatalf("info = %+v", info)
	}
	if info.CodeBits != res.CodeBits {
		t.Fatalf("CodeBits %d != %d", info.CodeBits, res.CodeBits)
	}
	if !info.Schema.Equal(tb.Schema) {
		t.Fatal("schema mismatch")
	}
	if info.Streaming || !info.RowOrderPreserved {
		t.Fatalf("flags wrong: %+v", info)
	}
	if len(info.ColumnKind) != 5 || info.ColumnKind[1] != "binary" {
		t.Fatalf("column kinds = %v", info.ColumnKind)
	}
	if info.TotalBytes != len(res.Archive) {
		t.Fatal("size mismatch")
	}
	// Streaming batch archives report Streaming.
	_, batch, _ := batchFixture(t)
	binfo, err := Inspect(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !binfo.Streaming || binfo.Rows != 250 {
		t.Fatalf("batch info = %+v", binfo)
	}
	// Corruption is rejected.
	bad := append([]byte{}, res.Archive...)
	bad[10] ^= 0xFF
	if _, err := Inspect(bad); err == nil {
		t.Fatal("corrupt archive inspected without error")
	}
}
