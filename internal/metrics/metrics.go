// Package metrics is a dependency-free Prometheus text-format (0.0.4)
// exposition registry. SurfOS components register instruments — counters,
// gauges, histograms — or scrape-time collectors for families whose label
// sets are dynamic (per-device, per-tenant, per-subscriber), and the
// daemon serves one registry over HTTP at /metrics.
//
// The package implements only what the daemon needs: no label cardinality
// tracking, no metric expiry, no protobuf exposition. Instruments are safe
// for concurrent use; collectors run on the scraping goroutine.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair on a sample.
type Label struct {
	Name  string
	Value string
}

// Sample is one exposition line within a family: an optional name suffix
// (e.g. "_bucket"), labels, and a value.
type Sample struct {
	Suffix string
	Labels []Label
	Value  float64
}

// Family is one metric family: a # HELP/# TYPE header plus samples.
type Family struct {
	Name    string
	Help    string
	Type    string // "counter", "gauge", "histogram", "untyped"
	Samples []Sample
}

// Collector produces families at scrape time — the hook for metrics whose
// label sets change at runtime.
type Collector func() []Family

// Registry holds instruments and collectors and renders them as
// Prometheus text.
type Registry struct {
	mu         sync.Mutex
	families   []*instrumentFamily
	collectors []Collector
}

// instrumentFamily is a statically-registered family backed by one
// instrument.
type instrumentFamily struct {
	name, help, typ string
	collect         func() []Sample
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) add(name, help, typ string, collect func() []Sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.families = append(r.families, &instrumentFamily{name: name, help: help, typ: typ, collect: collect})
}

// RegisterCollector adds a scrape-time family producer.
func (r *Registry) RegisterCollector(c Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, c)
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.add(name, help, "counter", func() []Sample {
		return []Sample{{Value: float64(c.Value())}}
	})
	return c
}

// Gauge is a metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.add(name, help, "gauge", func() []Sample {
		return []Sample{{Value: g.Value()}}
	})
	return g
}

// GaugeFunc registers a gauge whose value is read at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.add(name, help, "gauge", func() []Sample {
		return []Sample{{Value: fn()}}
	})
}

// CounterFunc registers a counter whose monotonic value is read at scrape
// time — for totals maintained elsewhere (bus drop counts, rejected
// submissions).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.add(name, help, "counter", func() []Sample {
		return []Sample{{Value: fn()}}
	})
}

// Histogram accumulates observations into cumulative buckets.
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64 // ascending upper bounds, +Inf implicit
	counts  []uint64  // per-bucket (non-cumulative) counts, len(bounds)+1
	sum     float64
	samples uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.samples++
	h.mu.Unlock()
}

// Count returns how many values have been observed.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.samples
}

// DurationBuckets is a latency bucket ladder in seconds suitable for
// reconcile and RPC timings (0.5ms .. 10s).
var DurationBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram registers and returns a histogram with the given ascending
// bucket upper bounds (a trailing +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	h := &Histogram{bounds: append([]float64(nil), buckets...), counts: make([]uint64, len(buckets)+1)}
	r.add(name, help, "histogram", func() []Sample {
		h.mu.Lock()
		defer h.mu.Unlock()
		out := make([]Sample, 0, len(h.bounds)+3)
		var cum uint64
		for i, b := range h.bounds {
			cum += h.counts[i]
			out = append(out, Sample{
				Suffix: "_bucket",
				Labels: []Label{{Name: "le", Value: formatFloat(b)}},
				Value:  float64(cum),
			})
		}
		cum += h.counts[len(h.bounds)]
		out = append(out,
			Sample{Suffix: "_bucket", Labels: []Label{{Name: "le", Value: "+Inf"}}, Value: float64(cum)},
			Sample{Suffix: "_sum", Value: h.sum},
			Sample{Suffix: "_count", Value: float64(h.samples)},
		)
		return out
	})
	return h
}

// WriteText renders every family in Prometheus text exposition format.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	families := append([]*instrumentFamily(nil), r.families...)
	collectors := append([]Collector(nil), r.collectors...)
	r.mu.Unlock()

	var all []Family
	for _, f := range families {
		all = append(all, Family{Name: f.name, Help: f.help, Type: f.typ, Samples: f.collect()})
	}
	for _, c := range collectors {
		all = append(all, c()...)
	}
	for i := range all {
		if err := writeFamily(w, &all[i]); err != nil {
			return err
		}
	}
	return nil
}

func writeFamily(w io.Writer, f *Family) error {
	typ := f.Type
	if typ == "" {
		typ = "untyped"
	}
	if f.Help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, escapeHelp(f.Help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, typ); err != nil {
		return err
	}
	for _, s := range f.Samples {
		var sb strings.Builder
		sb.WriteString(f.Name)
		sb.WriteString(s.Suffix)
		if len(s.Labels) > 0 {
			sb.WriteByte('{')
			for i, l := range s.Labels {
				if i > 0 {
					sb.WriteByte(',')
				}
				sb.WriteString(l.Name)
				sb.WriteString(`="`)
				sb.WriteString(escapeLabel(l.Value))
				sb.WriteByte('"')
			}
			sb.WriteByte('}')
		}
		sb.WriteByte(' ')
		sb.WriteString(formatFloat(s.Value))
		sb.WriteByte('\n')
		if _, err := io.WriteString(w, sb.String()); err != nil {
			return err
		}
	}
	return nil
}

// Handler serves the registry in text exposition format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}
