// Command dsqzd serves DeepSqueeze archives over HTTP: the serve-many half
// of the open-once/serve-many split. Archives under -root are opened once
// into cached handles; queries against a warm handle skip the header,
// footer, zone-map, and decoder parsing entirely and pay only for the row
// groups and columns each query touches.
//
//	dsqzd -root /data/archives -addr :8642
//
//	POST /query     {"archive":"trips.dsqz","where":"tip > 5","select":"city",
//	                 "agg":"count","limit":100,"format":"csv"}
//	GET  /archives  every *.dsqz under -root, as dsqz inspect -json summaries
//	GET  /stats     server counters and per-archive stage aggregates
//
// With -blockcache set (e.g. -blockcache 256M) the server keeps a
// byte-budgeted LRU of decoded row-group × column blocks shared across
// queries: repeat queries over warm groups skip archive decoding entirely
// and filter directly over cached blocks — the same executor, so the same
// results, as without the cache. /stats then reports block_hits, block_misses,
// block_bytes, and block_evictions.
//
// Query results are byte-identical to `dsqz query` on the same archive and
// predicate (format "csv" returns the same CSV bytes). SIGINT/SIGTERM drain
// in-flight queries before exit.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"deepsqueeze/internal/core"
	"deepsqueeze/internal/dataset"
	"deepsqueeze/internal/query"
	"deepsqueeze/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8642", "listen address")
	root := flag.String("root", ".", "directory the served archives live under")
	cache := flag.Int("cache", 0, "max open archive handles (0 = default 16)")
	conc := flag.Int("concurrency", 0, "max queries decoding at once (0 = all CPUs)")
	queue := flag.Int("queue", 0, "max queries waiting for a slot (0 = 4x concurrency, negative = none)")
	parallel := flag.Int("p", 0, "worker-pool parallelism shared by all queries (0 = all CPUs)")
	blockcache := flag.String("blockcache", "0", "decoded-block cache budget, e.g. 256M or 1G (0 = disabled)")
	drain := flag.Duration("drain", 30*time.Second, "shutdown grace period for in-flight queries")
	flag.Parse()

	blockBytes, err := parseByteSize(*blockcache)
	if err != nil {
		log.Fatalf("dsqzd: -blockcache: %v", err)
	}
	d, err := newDaemon(*root, serve.Config{
		MaxOpenArchives: *cache,
		MaxConcurrent:   *conc,
		MaxQueue:        *queue,
		Parallelism:     *parallel,
		BlockCacheBytes: blockBytes,
	})
	if err != nil {
		log.Fatalf("dsqzd: %v", err)
	}

	srv := newServer(*addr, d.handler())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("dsqzd: serving %s on %s", d.root, *addr)

	select {
	case err := <-errc:
		log.Fatalf("dsqzd: %v", err)
	case <-ctx.Done():
	}
	// Graceful drain: stop accepting, let in-flight queries finish.
	log.Printf("dsqzd: shutting down (draining up to %s)", *drain)
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Fatalf("dsqzd: shutdown: %v", err)
	}
}

// readHeaderTimeout bounds how long a client may take over its request
// headers; without it one connection that never finishes them is held open
// forever.
const readHeaderTimeout = 10 * time.Second

func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

// parseByteSize parses a byte count with an optional K/M/G (or KB/MB/GB)
// suffix, the -blockcache budget syntax. "0" disables.
func parseByteSize(s string) (int64, error) {
	t := strings.TrimSpace(strings.ToUpper(s))
	mult := int64(1)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{
		{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30},
		{"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30},
	} {
		if strings.HasSuffix(t, u.suffix) {
			t, mult = strings.TrimSuffix(t, u.suffix), u.mult
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad size %q (want e.g. 0, 65536, 256M, 1G)", s)
	}
	return n * mult, nil
}

// daemon binds one serve.Server to one archive root directory.
type daemon struct {
	root string
	srv  *serve.Server
}

func newDaemon(root string, cfg serve.Config) (*daemon, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(abs)
	if err != nil {
		return nil, err
	}
	if !fi.IsDir() {
		return nil, fmt.Errorf("root %s is not a directory", abs)
	}
	return &daemon{root: abs, srv: serve.New(cfg)}, nil
}

func (d *daemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", d.handleQuery)
	mux.HandleFunc("/archives", d.handleArchives)
	mux.HandleFunc("/stats", d.handleStats)
	return mux
}

// queryRequest is the POST /query body.
type queryRequest struct {
	// Archive is the path relative to the server root (no absolute paths,
	// no "..").
	Archive string `json:"archive"`
	Where   string `json:"where,omitempty"`
	Select  string `json:"select,omitempty"` // comma-separated columns
	Agg     string `json:"agg,omitempty"`    // count,min:col,max:col,sum:col
	Limit   int    `json:"limit,omitempty"`
	// Format selects "json" (default) or "csv" — the same bytes
	// `dsqz query` writes.
	Format string `json:"format,omitempty"`
}

// queryResponse is the JSON /query result.
type queryResponse struct {
	Matched      int             `json:"matched"`
	Columns      []string        `json:"columns,omitempty"`
	Rows         [][]string      `json:"rows,omitempty"`
	Aggregates   []aggValue      `json:"aggregates,omitempty"`
	GroupsTotal  int             `json:"groups_total"`
	GroupsPruned int             `json:"groups_pruned"`
	BytesSkipped int64           `json:"bytes_skipped"`
	Stages       []stageDuration `json:"stages,omitempty"`
}

type aggValue struct {
	Agg   string  `json:"agg"`
	Col   string  `json:"col,omitempty"`
	Value float64 `json:"value"`
}

type stageDuration struct {
	Name   string `json:"name"`
	WallNS int64  `json:"wall_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// resolve maps a request's archive name onto the root directory, rejecting
// absolute paths and traversal outside it.
func (d *daemon) resolve(name string) (string, error) {
	if name == "" {
		return "", fmt.Errorf("archive is required")
	}
	if !filepath.IsLocal(name) {
		return "", fmt.Errorf("archive %q must be a relative path inside the root", name)
	}
	return filepath.Join(d.root, name), nil
}

func (d *daemon) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req queryRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return
	}
	path, err := d.resolve(req.Archive)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	opts := query.Options{Limit: req.Limit}
	if req.Where != "" {
		if opts.Where, err = query.Parse(req.Where); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	if req.Select != "" {
		for _, name := range strings.Split(req.Select, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				http.Error(w, fmt.Sprintf("bad select %q (empty column name)", req.Select), http.StatusBadRequest)
				return
			}
			opts.Select = append(opts.Select, name)
		}
	}
	if req.Agg != "" {
		if opts.Aggs, err = query.ParseAggs(req.Agg); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}

	res, err := d.srv.Query(r.Context(), path, opts)
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}

	if strings.EqualFold(req.Format, "csv") {
		if res.Table == nil {
			http.Error(w, "csv format requires a row query (no agg)", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "text/csv")
		w.Header().Set("X-Matched-Rows", strconv.Itoa(res.Matched))
		// Rows stream into the response as they render. The only error left
		// is a failed write, and the status went out with the first one: the
		// client hung up, and there is no one to report a 500 to.
		res.Table.WriteCSV(w)
		return
	}

	resp := queryResponse{
		Matched:      res.Matched,
		GroupsTotal:  res.GroupsTotal,
		GroupsPruned: res.GroupsPruned,
		BytesSkipped: res.BytesSkipped,
	}
	for _, st := range res.Stages {
		resp.Stages = append(resp.Stages, stageDuration{Name: st.Name, WallNS: st.Wall.Nanoseconds(), Bytes: st.Bytes})
	}
	for _, a := range res.Aggregates {
		resp.Aggregates = append(resp.Aggregates, aggValue{Agg: a.Op.Kind.String(), Col: a.Op.Col, Value: a.Value})
	}
	if res.Table != nil {
		resp.Columns, resp.Rows = tableCells(res.Table)
	}
	writeJSON(w, resp)
}

// statusFor maps a query failure onto its HTTP status: shed requests are
// retryable (503), missing archives are 404, and a client that hung up gets
// the conventional 499.
func statusFor(err error) int {
	switch {
	case errors.Is(err, serve.ErrOverloaded):
		return http.StatusServiceUnavailable
	case errors.Is(err, fs.ErrNotExist):
		return http.StatusNotFound
	case errors.Is(err, context.Canceled):
		return 499 // client closed request
	}
	return http.StatusInternalServerError
}

// tableCells renders a table into column names and per-row string cells,
// formatting numerics with the CSV writer's own formatter
// (dataset.AppendNumeric) so the two formats agree.
func tableCells(t *dataset.Table) ([]string, [][]string) {
	cols := make([]string, len(t.Schema.Columns))
	for i, c := range t.Schema.Columns {
		cols[i] = c.Name
	}
	rows := make([][]string, t.NumRows())
	var cell []byte
	for r := range rows {
		row := make([]string, len(cols))
		for i, c := range t.Schema.Columns {
			if c.Type == dataset.Categorical {
				row[i] = t.Str[i][r]
			} else {
				cell = dataset.AppendNumeric(cell[:0], t.Num[i][r])
				row[i] = string(cell)
			}
		}
		rows[r] = row
	}
	return cols, rows
}

func (d *daemon) handleArchives(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	type archiveEntry struct {
		*core.ArchiveSummary
		Error string `json:"error,omitempty"`
	}
	var out []archiveEntry
	err := filepath.WalkDir(d.root, func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() || !strings.HasSuffix(de.Name(), ".dsqz") {
			return err
		}
		rel, rerr := filepath.Rel(d.root, path)
		if rerr != nil {
			return rerr
		}
		sum, serr := d.srv.Summary(path)
		if serr != nil {
			// Report the broken archive with its path instead of failing the
			// whole listing.
			out = append(out, archiveEntry{Error: fmt.Sprintf("%s: %v", rel, serr)})
			return nil
		}
		sum.Path = rel
		out = append(out, archiveEntry{ArchiveSummary: sum})
		return nil
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, out)
}

func (d *daemon) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, d.srv.Stats())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
