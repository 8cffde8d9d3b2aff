package metrics

import (
	"net/http/httptest"
	"strings"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("surfos_things_total", "Things that happened.")
	g := r.Gauge("surfos_level", "Current level.")
	r.GaugeFunc("surfos_live", "Scrape-time value.", func() float64 { return 7 })
	c.Inc()
	c.Add(2)
	g.Set(-1.5)

	out := render(t, r)
	for _, want := range []string{
		"# HELP surfos_things_total Things that happened.\n",
		"# TYPE surfos_things_total counter\n",
		"surfos_things_total 3\n",
		"# TYPE surfos_level gauge\n",
		"surfos_level -1.5\n",
		"surfos_live 7\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestHistogramBucketsAreCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("surfos_lat_seconds", "Latency.", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	out := render(t, r)
	for _, want := range []string{
		`surfos_lat_seconds_bucket{le="0.01"} 1` + "\n",
		`surfos_lat_seconds_bucket{le="0.1"} 3` + "\n",
		`surfos_lat_seconds_bucket{le="1"} 4` + "\n",
		`surfos_lat_seconds_bucket{le="+Inf"} 5` + "\n",
		"surfos_lat_seconds_count 5\n",
		"surfos_lat_seconds_sum 5.605\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	// An observation exactly on a bound falls in that bound's bucket.
	h2 := r.Histogram("surfos_edge", "", []float64{1})
	h2.Observe(1)
	if out := render(t, r); !strings.Contains(out, `surfos_edge_bucket{le="1"} 1`+"\n") {
		t.Fatalf("on-bound observation missed its bucket:\n%s", out)
	}
}

func TestCollectorAndLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.RegisterCollector(func() []Family {
		return []Family{{
			Name: "surfos_device_health",
			Help: "Device health (1 = current state).",
			Type: "gauge",
			Samples: []Sample{
				{Labels: []Label{{Name: "device", Value: `rm "a"` + "\n"}, {Name: "state", Value: "dead"}}, Value: 1},
			},
		}}
	})
	out := render(t, r)
	want := `surfos_device_health{device="rm \"a\"\n",state="dead"} 1` + "\n"
	if !strings.Contains(out, want) {
		t.Fatalf("missing %q in:\n%s", want, out)
	}
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
}
