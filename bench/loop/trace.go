package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op; Parent is
// the span that was open when this one began (-1 for an op's root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer records spans from the benchmark's driver goroutine into a
// preallocated slice; nothing is written until the run ends. A nil tracer
// records nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
	open  []int // stack of open span IDs
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// setOp tags subsequent spans with the op they belong to.
func (t *tracer) setOp(op int) {
	if t != nil {
		t.op = op
	}
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, StartNs: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned (and anything left open inside it).
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].EndNs = int64(time.Since(t.t0))
	for n := len(t.open); n > 0; n-- {
		if t.open[n-1] == id {
			t.open = t.open[:n-1]
			return
		}
	}
}

// layerTime is one span name's aggregate over a run.
type layerTime struct {
	Name   string
	Count  int
	Total  time.Duration // sum of durations
	Self   time.Duration // sum of durations minus child durations
	Median time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the durations of its direct children; children of one parent never
// overlap because the tracer is driven from a single goroutine.
func selfTimes(spans []span) []layerTime {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	agg := map[string]*layerTime{}
	durs := map[string][]float64{}
	for _, s := range spans {
		a := agg[s.Name]
		if a == nil {
			a = &layerTime{Name: s.Name}
			agg[s.Name] = a
		}
		d := s.EndNs - s.StartNs
		a.Count++
		a.Total += time.Duration(d)
		a.Self += time.Duration(d - child[s.ID])
		durs[s.Name] = append(durs[s.Name], float64(d))
	}
	out := make([]layerTime, 0, len(agg))
	for name, a := range agg {
		a.Median = time.Duration(median(durs[name]))
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// write dumps the spans as a JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
