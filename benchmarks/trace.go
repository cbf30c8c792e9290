package main

import (
	"encoding/json"
	"os"
	"time"

	"deepsqueeze"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent indexes the span that caused this one (-1 for an operation's root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps a traced run's spans in memory until the run ends. It is used
// from the benchmark's single measuring goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span; parent < 0 starts a new operation.
func (tr *tracer) begin(name string, parent int) int {
	op := tr.ops
	if parent >= 0 {
		op = tr.spans[parent].Op
	} else {
		tr.ops++
	}
	tr.spans = append(tr.spans, span{Name: name, Start: time.Since(tr.t0).Nanoseconds(), Parent: parent, Op: op})
	return len(tr.spans) - 1
}

// end closes a span.
func (tr *tracer) end(id int) { tr.spans[id].End = time.Since(tr.t0).Nanoseconds() }

// call times fn as a root span.
func (tr *tracer) call(name string, fn func() error) (int, error) {
	id := tr.begin(name, -1)
	err := fn()
	tr.end(id)
	return id, err
}

// stages records the stage timings a call returned as child spans of that
// call. Stages report durations only; they ran one after another, so the
// children are laid end to end from the parent's start.
func (tr *tracer) stages(parent int, prefix string, stages []deepsqueeze.StageStats) {
	at := tr.spans[parent].Start
	for _, st := range stages {
		tr.spans = append(tr.spans, span{
			Name: prefix + st.Name, Start: at, End: at + st.Wall.Nanoseconds(),
			Parent: parent, Op: tr.spans[parent].Op,
		})
		at += st.Wall.Nanoseconds()
	}
}

// durations returns the length in nanoseconds of every span called name.
func (tr *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range tr.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part its
// child spans cover: where the time of a layer itself went.
func (tr *tracer) selfTimes() map[string]int64 {
	child := make([]int64, len(tr.spans))
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]int64)
	for i, s := range tr.spans {
		self[s.Name] += s.End - s.Start - child[i]
	}
	return self
}

// write stores the spans and the per-layer self times as JSON.
func (tr *tracer) write(path string, meta map[string]any) error {
	doc := map[string]any{"meta": meta, "self_ns": tr.selfTimes(), "spans": tr.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
