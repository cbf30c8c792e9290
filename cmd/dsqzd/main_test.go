package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"deepsqueeze/internal/core"
	"deepsqueeze/internal/dataset"
	"deepsqueeze/internal/query"
	"deepsqueeze/internal/serve"
)

var (
	archOnce  sync.Once
	archBytes []byte
	archErr   error
)

// testArchive compresses a small grouped archive once per test binary.
func testArchive(t *testing.T) []byte {
	t.Helper()
	archOnce.Do(func() {
		schema := dataset.NewSchema(
			dataset.Column{Name: "tag", Type: dataset.Categorical},
			dataset.Column{Name: "seq", Type: dataset.Numeric},
		)
		rows := 512
		tb := dataset.NewTable(schema, rows)
		rng := rand.New(rand.NewSource(5))
		tags := []string{"x", "y", "z"}
		for i := 0; i < rows; i++ {
			tb.AppendRow([]string{tags[rng.Intn(len(tags))]}, []float64{float64(i)})
		}
		opts := core.DefaultOptions()
		opts.Seed = 5
		opts.CodeSize = 2
		opts.Train.Epochs = 2
		opts.TrainSampleRows = 256
		opts.RowGroupSize = 64
		res, err := core.Compress(tb, []float64{0, 0}, opts)
		if err != nil {
			archErr = err
			return
		}
		archBytes = res.Archive
	})
	if archErr != nil {
		t.Fatal(archErr)
	}
	return archBytes
}

// testDaemon serves a temp root holding the test archive as t.dsqz.
func testDaemon(t *testing.T) (*daemon, string) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "t.dsqz"), testArchive(t), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := newDaemon(dir, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return d, dir
}

func postQuery(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestQueryCSVByteIdentical pins the daemon's acceptance contract: a csv
// query over HTTP returns exactly the bytes `dsqz query` writes for the same
// archive and predicate.
func TestQueryCSVByteIdentical(t *testing.T) {
	d, _ := testDaemon(t)
	h := d.handler()

	want, err := query.Run(testArchive(t), query.Options{Where: mustParse(t, "seq < 100")})
	if err != nil {
		t.Fatal(err)
	}
	var wantCSV bytes.Buffer
	if err := want.Table.WriteCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}

	w := postQuery(t, h, `{"archive":"t.dsqz","where":"seq < 100","format":"csv"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Body.Bytes(); !bytes.Equal(got, wantCSV.Bytes()) {
		t.Fatalf("csv over HTTP differs from dsqz query output:\n%s\nvs\n%s", got, wantCSV.Bytes())
	}
	if got := w.Header().Get("X-Matched-Rows"); got != "100" {
		t.Fatalf("X-Matched-Rows = %q, want 100", got)
	}
}

// hungUpWriter is a ResponseWriter whose client has gone away: every body
// write fails.
type hungUpWriter struct {
	header http.Header
	status int
}

func (w *hungUpWriter) Header() http.Header { return w.header }

func (w *hungUpWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *hungUpWriter) Write([]byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return 0, errors.New("connection reset by peer")
}

// TestQueryCSVClientHangUp: a CSV response streams into the ResponseWriter,
// so a write that fails is a client that hung up after the status went out,
// not a server error to report.
func TestQueryCSVClientHangUp(t *testing.T) {
	d, _ := testDaemon(t)
	w := &hungUpWriter{header: http.Header{}}
	d.handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query",
		strings.NewReader(`{"archive":"t.dsqz","format":"csv"}`)))
	if w.status != http.StatusOK {
		t.Fatalf("status %d after the client hung up, want 200", w.status)
	}
	if got := w.header.Get("Content-Type"); got != "text/csv" {
		t.Fatalf("Content-Type %q, want text/csv", got)
	}
}

func mustParse(t *testing.T, s string) query.Pred {
	t.Helper()
	p, err := query.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestQueryJSON exercises the JSON response shape for row and aggregate
// queries.
func TestQueryJSON(t *testing.T) {
	d, _ := testDaemon(t)
	h := d.handler()

	w := postQuery(t, h, `{"archive":"t.dsqz","where":"seq < 10","select":"seq"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp struct {
		Matched int        `json:"matched"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
		Pruned  int        `json:"groups_pruned"`
		Total   int        `json:"groups_total"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Matched != 10 || len(resp.Rows) != 10 {
		t.Fatalf("matched=%d rows=%d, want 10/10", resp.Matched, len(resp.Rows))
	}
	if len(resp.Columns) != 1 || resp.Columns[0] != "seq" {
		t.Fatalf("columns = %v, want [seq]", resp.Columns)
	}
	if resp.Total != 8 || resp.Pruned == 0 {
		t.Fatalf("groups %d/%d pruned, want pruning over 8 groups", resp.Pruned, resp.Total)
	}

	w = postQuery(t, h, `{"archive":"t.dsqz","where":"seq < 10","agg":"count,max:seq"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("agg status %d: %s", w.Code, w.Body.String())
	}
	var aresp struct {
		Matched    int `json:"matched"`
		Rows       [][]string
		Aggregates []struct {
			Agg   string  `json:"agg"`
			Col   string  `json:"col"`
			Value float64 `json:"value"`
		} `json:"aggregates"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &aresp); err != nil {
		t.Fatal(err)
	}
	if len(aresp.Rows) != 0 || len(aresp.Aggregates) != 2 {
		t.Fatalf("agg query returned %d rows, %d aggregates", len(aresp.Rows), len(aresp.Aggregates))
	}
	if aresp.Aggregates[0].Value != 10 || aresp.Aggregates[1].Value != 9 {
		t.Fatalf("aggregates = %+v, want count 10, max 9", aresp.Aggregates)
	}
}

// TestQueryErrors covers the daemon's client-error surface: bad methods,
// bodies, predicates, traversal attempts, and missing archives.
func TestQueryErrors(t *testing.T) {
	d, _ := testDaemon(t)
	h := d.handler()

	cases := []struct {
		name   string
		body   string
		status int
		substr string
	}{
		{"missing archive field", `{}`, http.StatusBadRequest, "archive is required"},
		{"traversal", `{"archive":"../etc/passwd"}`, http.StatusBadRequest, "inside the root"},
		{"absolute", `{"archive":"/etc/passwd"}`, http.StatusBadRequest, "inside the root"},
		{"bad where", `{"archive":"t.dsqz","where":"seq <>< 1"}`, http.StatusBadRequest, "query:"},
		{"bad agg", `{"archive":"t.dsqz","agg":"median:seq"}`, http.StatusBadRequest, "bad aggregate"},
		{"not found", `{"archive":"nope.dsqz"}`, http.StatusNotFound, "nope.dsqz"},
		{"csv of agg", `{"archive":"t.dsqz","agg":"count","format":"csv"}`, http.StatusBadRequest, "row query"},
	}
	for _, c := range cases {
		w := postQuery(t, h, c.body)
		if w.Code != c.status {
			t.Errorf("%s: status %d, want %d (%s)", c.name, w.Code, c.status, w.Body.String())
		}
		if !strings.Contains(w.Body.String(), c.substr) {
			t.Errorf("%s: body %q, want %q in it", c.name, w.Body.String(), c.substr)
		}
	}

	req := httptest.NewRequest(http.MethodGet, "/query", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query: status %d, want 405", w.Code)
	}
}

// TestStatusFor checks the error → HTTP status mapping, including the
// distinct retryable status for shed requests.
func TestStatusFor(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{serve.ErrOverloaded, http.StatusServiceUnavailable},
		{fs.ErrNotExist, http.StatusNotFound},
		{context.Canceled, 499},
		{errors.New("anything else"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := statusFor(c.err); got != c.want {
			t.Errorf("statusFor(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestArchivesEndpoint lists every archive under the root with its summary,
// reporting broken files inline instead of failing the listing.
func TestArchivesEndpoint(t *testing.T) {
	d, dir := testDaemon(t)
	if err := os.WriteFile(filepath.Join(dir, "bad.dsqz"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	h := d.handler()
	req := httptest.NewRequest(http.MethodGet, "/archives", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var out []struct {
		Path  string `json:"path"`
		Rows  int    `json:"rows"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("listed %d archives, want 2: %s", len(out), w.Body.String())
	}
	var sawGood, sawBad bool
	for _, e := range out {
		switch {
		case e.Path == "t.dsqz" && e.Rows == 512 && e.Error == "":
			sawGood = true
		case e.Error != "" && strings.Contains(e.Error, "bad.dsqz"):
			sawBad = true
		}
	}
	if !sawGood || !sawBad {
		t.Fatalf("listing missing entries (good=%v bad=%v): %s", sawGood, sawBad, w.Body.String())
	}
}

// TestStatsEndpoint checks /stats reflects served queries.
func TestStatsEndpoint(t *testing.T) {
	d, _ := testDaemon(t)
	h := d.handler()
	if w := postQuery(t, h, `{"archive":"t.dsqz","where":"seq < 5"}`); w.Code != http.StatusOK {
		t.Fatalf("query status %d", w.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/stats", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var st serve.Stats
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Queries != 1 || st.OpenArchives != 1 {
		t.Fatalf("stats = %+v, want 1 query, 1 open archive", st)
	}
}

// TestJSONAndCSVAgree checks the two response formats render identical cell
// values, so clients can switch formats without changing results.
func TestJSONAndCSVAgree(t *testing.T) {
	d, _ := testDaemon(t)
	h := d.handler()
	const body = `{"archive":"t.dsqz","where":"seq >= 500"`
	wj := postQuery(t, h, body+`}`)
	wc := postQuery(t, h, body+`,"format":"csv"}`)
	if wj.Code != http.StatusOK || wc.Code != http.StatusOK {
		t.Fatalf("status json=%d csv=%d", wj.Code, wc.Code)
	}
	var resp struct {
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal(wj.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	var fromJSON bytes.Buffer
	fromJSON.WriteString(strings.Join(resp.Columns, ",") + "\n")
	for _, row := range resp.Rows {
		fromJSON.WriteString(strings.Join(row, ",") + "\n")
	}
	csv, err := io.ReadAll(wc.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromJSON.Bytes(), csv) {
		t.Fatalf("json cells and csv disagree:\n%s\nvs\n%s", fromJSON.Bytes(), csv)
	}
}

// TestParseByteSize pins the -blockcache size syntax.
func TestParseByteSize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
	}{
		{"0", 0},
		{"65536", 65536},
		{"4K", 4 << 10},
		{"4KB", 4 << 10},
		{"256m", 256 << 20},
		{"1G", 1 << 30},
		{" 2 MB ", 2 << 20},
	} {
		got, err := parseByteSize(tc.in)
		if err != nil {
			t.Fatalf("parseByteSize(%q): %v", tc.in, err)
		}
		if got != tc.want {
			t.Fatalf("parseByteSize(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
	for _, bad := range []string{"", "-1", "1T", "abc", "12MiB"} {
		if _, err := parseByteSize(bad); err == nil {
			t.Fatalf("parseByteSize(%q): no error", bad)
		}
	}
}

// TestBlockCacheDaemon runs the daemon with the block cache enabled: repeat
// queries must return byte-identical responses to the uncached daemon, and
// /stats must report the block-cache counters.
func TestBlockCacheDaemon(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "t.dsqz"), testArchive(t), 0o644); err != nil {
		t.Fatal(err)
	}
	plain, err := newDaemon(dir, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := newDaemon(dir, serve.Config{BlockCacheBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ph, ch := plain.handler(), cached.handler()

	bodies := []string{
		`{"archive":"t.dsqz","where":"seq >= 400","format":"csv"}`,
		`{"archive":"t.dsqz","where":"tag = 'x'","select":"seq","format":"csv"}`,
		`{"archive":"t.dsqz","where":"seq < 256","agg":"count,sum:seq"}`,
	}
	for pass := 0; pass < 2; pass++ {
		for i, body := range bodies {
			pw, cw := postQuery(t, ph, body), postQuery(t, ch, body)
			if pw.Code != http.StatusOK || cw.Code != http.StatusOK {
				t.Fatalf("pass %d body %d: status %d/%d", pass, i, pw.Code, cw.Code)
			}
			if strings.Contains(body, "csv") {
				// CSV responses carry only result bytes: must match exactly.
				if !bytes.Equal(pw.Body.Bytes(), cw.Body.Bytes()) {
					t.Fatalf("pass %d body %d: cached daemon response differs from uncached", pass, i)
				}
				continue
			}
			// JSON responses include per-stage wall times (never byte-equal
			// across runs); compare the result fields.
			var pr, cr queryResponse
			if err := json.Unmarshal(pw.Body.Bytes(), &pr); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(cw.Body.Bytes(), &cr); err != nil {
				t.Fatal(err)
			}
			if pr.Matched != cr.Matched || !reflect.DeepEqual(pr.Aggregates, cr.Aggregates) ||
				!reflect.DeepEqual(pr.Columns, cr.Columns) || !reflect.DeepEqual(pr.Rows, cr.Rows) {
				t.Fatalf("pass %d body %d: cached daemon result differs from uncached", pass, i)
			}
		}
	}

	req := httptest.NewRequest(http.MethodGet, "/stats", nil)
	w := httptest.NewRecorder()
	ch.ServeHTTP(w, req)
	var st serve.Stats
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.BlockCacheBudget != 8<<20 {
		t.Fatalf("block_cache_budget = %d, want %d", st.BlockCacheBudget, 8<<20)
	}
	if st.BlockMisses == 0 || st.BlockHits == 0 {
		t.Fatalf("block counters hits=%d misses=%d, want both > 0 after a warm pass", st.BlockHits, st.BlockMisses)
	}
	if st.BlockBytes <= 0 || st.BlockBytes > st.BlockCacheBudget {
		t.Fatalf("block_bytes = %d, want in (0, %d]", st.BlockBytes, st.BlockCacheBudget)
	}
}

// TestSlowHeadersDisconnected is the slow-loris case: a client that sends
// half a request line and stalls is disconnected by the server's header
// timeout, and a /query arriving meanwhile still answers.
func TestSlowHeadersDisconnected(t *testing.T) {
	d, _ := testDaemon(t)
	srv := newServer("", d.handler())
	if srv.ReadHeaderTimeout <= 0 {
		t.Fatal("newServer sets no ReadHeaderTimeout")
	}
	srv.ReadHeaderTimeout = 200 * time.Millisecond // same mechanism, shorter wait
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()

	slow, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if _, err := slow.Write([]byte("POST /que")); err != nil {
		t.Fatal(err)
	}

	answered := make(chan error, 1)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/query", "application/json",
			strings.NewReader(`{"archive":"t.dsqz","where":"seq < 100","format":"csv"}`))
		if err == nil {
			defer resp.Body.Close()
			if _, err = io.Copy(io.Discard, resp.Body); err == nil && resp.StatusCode != http.StatusOK {
				err = errors.New(resp.Status)
			}
		}
		answered <- err
	}()

	// The server closes the stalled connection: the read ends (EOF) well
	// before this deadline instead of timing out on an open socket.
	slow.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadAll(slow); err != nil {
		t.Fatalf("stalled connection was not closed by the server: %v", err)
	}
	if err := <-answered; err != nil {
		t.Fatalf("concurrent /query: %v", err)
	}
}
