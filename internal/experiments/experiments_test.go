package experiments

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := &Table{Header: []string{"a", "long-header"}}
	tb.Add("x", "1")
	tb.Add("longer-cell", "2")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d", len(lines))
	}
	// All lines aligned to the same width.
	if len(lines[0]) != len(lines[2]) {
		t.Errorf("misaligned table:\n%s", out)
	}
}

func TestSeriesCDFAndQuantiles(t *testing.T) {
	s := CDFOf("x", []float64{3, 1, 2, 4})
	if s.X[0] != 1 || s.X[3] != 4 {
		t.Errorf("cdf not sorted: %v", s.X)
	}
	if s.Y[3] != 1 {
		t.Errorf("cdf must end at 1: %v", s.Y)
	}
	if got := s.Quantile(0.5); got != 2 {
		t.Errorf("q50 = %v", got)
	}
	if got := s.Quantile(1); got != 4 {
		t.Errorf("q100 = %v", got)
	}
	// At interpolates.
	if got := s.At(2.5); got <= s.At(2) || got >= s.At(3) {
		t.Errorf("At not monotone: %v", got)
	}
	if got := s.At(-10); got != s.Y[0] {
		t.Errorf("below-range At = %v", got)
	}
	if got := s.At(10); got != 1 {
		t.Errorf("above-range At = %v", got)
	}
	empty := Series{}
	if !math.IsNaN(empty.At(1)) || !math.IsNaN(empty.Quantile(0.5)) {
		t.Error("empty series should yield NaN")
	}
}

func TestHeatmapStatsAndRender(t *testing.T) {
	h := &Heatmap{Cols: 2, Rows: 2, Values: []float64{1, 2, 3, math.NaN()}, Unit: "x"}
	min, med, max := h.Stats()
	if min != 1 || max != 3 || med != 2 {
		t.Errorf("stats = %v %v %v", min, med, max)
	}
	out := h.Render()
	if !strings.Contains(out, "?") {
		t.Error("NaN cell should render as ?")
	}
	if h.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %v", h.At(1, 0))
	}
	// Constant heatmap doesn't divide by zero.
	hc := &Heatmap{Cols: 1, Rows: 1, Values: []float64{5}}
	_ = hc.Render()
}

func TestTable1(t *testing.T) {
	r := RunTable1()
	if len(r.Specs) != 13 {
		t.Fatalf("table 1 has %d designs, want 13", len(r.Specs))
	}
	out := r.Render()
	for _, model := range []string{"LAIA", "RFocus", "LLAMA", "LAVA", "ScatterMIMO",
		"RFlens", "Diffract", "Scrolls", "mmWall", "NR-Surface", "PMSat", "MilliMirror", "AutoMS"} {
		if !strings.Contains(out, model) {
			t.Errorf("render missing %s", model)
		}
	}
	// The paper's notable cells.
	if !strings.Contains(out, "0.9-6 GHz") {
		t.Error("Scrolls band not rendered in paper notation")
	}
	if !strings.Contains(out, "column-wise") || !strings.Contains(out, "row-wise") {
		t.Error("granularity annotations missing")
	}
}

func TestFig6ReproducesPaper(t *testing.T) {
	r := RunFig6()
	if d := r.PaperParity(); d != "" {
		t.Fatalf("figure 6 parity: %s", d)
	}
	for _, c := range r.Cases {
		if c.Err != nil {
			t.Errorf("utterance %q failed: %v", c.Utterance, c.Err)
		}
	}
	if !strings.Contains(r.Render(), "paper parity: both Figure 6 examples reproduce exactly") {
		t.Error("render does not confirm parity")
	}
}

func TestFig2ConflictShape(t *testing.T) {
	r, err := RunFig2(context.Background(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	if s := r.ShapeCheck(); s != "" {
		t.Errorf("fig2 shape: %s", s)
	}
	if r.Coverage.Cols*r.Coverage.Rows != len(r.Coverage.Values) {
		t.Error("coverage heatmap dims inconsistent")
	}
	if r.LocErr.Cols != r.Coverage.Cols || r.LocErr.Rows != r.Coverage.Rows {
		t.Error("heatmaps not aligned")
	}
	// Coverage must actually reach the room: max RSS well above the min.
	min, _, max := r.Coverage.Stats()
	if max-min < 10 {
		t.Errorf("coverage heatmap dynamic range only %.1f dB", max-min)
	}
}

func TestFig4HybridShape(t *testing.T) {
	r, err := RunFig4(context.Background(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	if s := r.ShapeCheck(); s != "" {
		t.Errorf("fig4 shape: %s", s)
	}
	// Sweeps are monotone in cost and size.
	for _, pts := range [][]Fig4Point{r.Passive, r.Programmable, r.Hybrid} {
		for i := 1; i < len(pts); i++ {
			if pts[i].CostUSD <= pts[i-1].CostUSD || pts[i].AreaM2 <= pts[i-1].AreaM2 {
				t.Errorf("sweep not monotone: %+v -> %+v", pts[i-1], pts[i])
			}
		}
	}
	// Surfaces help: the best of every approach clearly beats baseline.
	for _, pts := range [][]Fig4Point{r.Passive, r.Programmable, r.Hybrid} {
		best := math.Inf(-1)
		for _, p := range pts {
			if p.MedianSNRdB > best {
				best = p.MedianSNRdB
			}
		}
		if best < r.BaselineSNR+8 {
			t.Errorf("approach best %.1f dB does not clearly beat baseline %.1f dB", best, r.BaselineSNR)
		}
	}
	if !strings.Contains(r.Render(), "shape check:") {
		t.Error("render missing shape check line")
	}
}

func TestChaosShape(t *testing.T) {
	r, err := RunChaos(context.Background(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	if s := r.ShapeCheck(); s != "" {
		t.Errorf("chaos shape: %s", s)
	}
	// The victim leaves the plan during the fault and returns afterwards.
	if len(r.During.Surfaces) != 1 || r.During.Surfaces[0] == r.Victim {
		t.Errorf("during-fault surfaces = %v", r.During.Surfaces)
	}
	if len(r.After.Surfaces) != 2 {
		t.Errorf("post-recovery surfaces = %v", r.After.Surfaces)
	}
	if !strings.Contains(r.Render(), "event trail: ") {
		t.Error("render missing event trail")
	}
}

func TestFig5MultitaskShape(t *testing.T) {
	r, err := RunFig5(context.Background(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	if s := r.ShapeCheck(); s != "" {
		t.Errorf("fig5 shape: %s", s)
	}
	for _, m := range []map[string]Series{r.LocErr, r.SNR} {
		for name, s := range m {
			if len(s.X) != r.Locations {
				t.Errorf("%s series has %d samples for %d locations", name, len(s.X), r.Locations)
			}
			if s.Y[len(s.Y)-1] != 1 {
				t.Errorf("%s CDF does not end at 1", name)
			}
		}
	}
	// The conflict: the coverage config localizes clearly worse than the
	// sensing config.
	if r.LocErr[CfgCoverageOpt].Quantile(0.5) < r.LocErr[CfgLocOpt].Quantile(0.5)*1.2 {
		t.Error("coverage-opt should localize worse than localization-opt")
	}
}

func TestRestartShape(t *testing.T) {
	r, err := RunRestart(context.Background(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	if s := r.ShapeCheck(); s != "" {
		t.Errorf("restart shape: %s", s)
	}
	// The journal saw every durable record before the simulated crash.
	if r.WALSeq == 0 || r.RecoveredLive == 0 {
		t.Errorf("nothing journaled: seq=%d live=%d", r.WALSeq, r.RecoveredLive)
	}
	out := r.Render()
	if !strings.Contains(out, "torn half-record") {
		t.Error("render missing the hard-kill summary")
	}
	// Temp state-dir paths must never leak into the golden output.
	if strings.Contains(out, "/tmp") || strings.Contains(out, "surfos-restart-") {
		t.Errorf("render leaks a path:\n%s", out)
	}
}

func TestFailoverShape(t *testing.T) {
	r, err := RunFailover(context.Background(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	if s := r.ShapeCheck(); s != "" {
		t.Errorf("failover shape: %s", s)
	}
	if r.WALSeq == 0 || r.FollowerApplied != r.WALSeq {
		t.Errorf("replication did not keep up: primary seq=%d follower=%d", r.WALSeq, r.FollowerApplied)
	}
	if !r.StaleRejected {
		t.Error("resumed stale primary was not fenced")
	}
	if !r.PlansIdentical {
		t.Error("promoted plans differ from the dead primary's reboot")
	}
	out := r.Render()
	if !strings.Contains(out, "promoted") || !strings.Contains(out, "fenced") {
		t.Error("render missing the promotion/fencing summary")
	}
	// Temp state-dir paths must never leak into the golden output.
	if strings.Contains(out, "/tmp") || strings.Contains(out, "surfos-failover-") {
		t.Errorf("render leaks a path:\n%s", out)
	}
}
