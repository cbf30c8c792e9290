package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"deepsqueeze/internal/serve"
)

// daemon is one dsqzd child process and the keep-alive client that talks to
// it over loopback.
type daemon struct {
	cmd    *exec.Cmd
	cancel context.CancelFunc // interrupts the child
	base   string
	client *http.Client
	stderr bytes.Buffer
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before dsqzd binds it; a collision in that window fails start-up,
// which the caller reports.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches dsqzd pinned to one decode worker and two admitted
// queries (one per benchmark client) and returns once GET /archives answers.
// The child never outlives the benchmark: stop or a done ctx (main cancels it
// on SIGINT and SIGTERM) interrupts it, so that dsqzd drains and exits 0, and
// kills it if the drain takes longer than 5 s; should the benchmark itself be
// killed, the kernel kills the child (Pdeathsig, Linux only — like the /proc
// reads below).
func startDaemon(ctx context.Context, bin, root string, blockCache int64) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	d := &daemon{
		base: "http://" + addr,
		client: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 4},
		},
	}
	childCtx, cancel := context.WithCancel(ctx)
	d.cancel = cancel
	d.cmd = exec.CommandContext(childCtx, bin, "-root", root, "-addr", addr, "-p", "1", "-concurrency", "2", "-blockcache", strconv.FormatInt(blockCache, 10))
	d.cmd.Cancel = func() error { return d.cmd.Process.Signal(os.Interrupt) }
	d.cmd.WaitDelay = 5 * time.Second
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		cancel()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err = d.get(ctx, "/archives"); err == nil {
			return d, nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.stop()
			return nil, fmt.Errorf("dsqzd did not answer on %s: %v\n%s", addr, err, d.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop interrupts the child and waits until it has exited.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	d.cancel()
	d.cmd.Wait()
}

func (d *daemon) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
	if err != nil {
		return nil, err
	}
	return d.do(req)
}

// query posts one prepared /query body and returns the response bytes.
func (d *daemon) query(ctx context.Context, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/query", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return d.do(req)
}

func (d *daemon) do(req *http.Request) ([]byte, error) {
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, strings.TrimSpace(string(b)))
	}
	return b, nil
}

// stats fetches the daemon's /stats document.
func (d *daemon) stats(ctx context.Context) (serve.Stats, error) {
	var st serve.Stats
	b, err := d.get(ctx, "/stats")
	if err != nil {
		return st, err
	}
	err = json.Unmarshal(b, &st)
	return st, err
}

// peakRSSMB reads a process's high-water resident set from /proc.
func peakRSSMB(pid int) float64 {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
