package rfsim

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"

	"surfos/internal/geom"
	"surfos/internal/surface"
)

// pinnedCopy overwrites stuck indices of surface s in a fresh config slice.
func pinnedCopy(cfgs []surface.Config, s int, stuck map[int]float64) []surface.Config {
	out := make([]surface.Config, len(cfgs))
	for i, c := range cfgs {
		vals := append([]float64(nil), c.Values...)
		if i == s {
			for k, v := range stuck {
				vals[k] = v
			}
		}
		out[i] = surface.Config{Property: c.Property, Values: vals}
	}
	return out
}

// stuckMaps returns element-wise control maps for every surface of ch,
// with surface s's stuck elements frozen: the map a driver builds for an
// element-wise panel with actuator faults.
func stuckMaps(ch *Channel, s int, stuck map[int]float64) []ControlMap {
	maps := make([]ControlMap, len(ch.Single))
	for i, coeffs := range ch.Single {
		var mask map[int]float64
		if i == s {
			mask = stuck
		}
		maps[i] = lineMap(1, len(coeffs), surface.ElementWise, nil, mask)
	}
	return maps
}

// Reducing over a stuck map must be exact: evaluating the reduced channel
// over the healthy degrees of freedom equals evaluating the full channel
// with the stuck values substituted, including through cascade blocks; and
// whatever value a caller later supplies for a stuck element is ignored.
func TestReduceStuckMatchesFullEvaluation(t *testing.T) {
	sim, _, _ := twoSurfaceSim(t)
	ch := sim.NewTx(geom.V(-1, 1, 1)).Channel(geom.V(0.5, 3, 1))
	if len(ch.Cross) == 0 {
		t.Fatal("fixture lost its cascade blocks")
	}
	r := rand.New(rand.NewSource(7))
	cfgs := randConfigs(r, ch)
	stuck := map[int]float64{0: math.Pi, 4: 1.0, 8: 0.25}

	pinned := ch.Reduce(stuckMaps(ch, 0, stuck))
	want, err := ch.Eval(pinnedCopy(cfgs, 0, stuck))
	if err != nil {
		t.Fatal(err)
	}
	// Garble the stuck entries: the reduced channel must not read them.
	garbled := pinnedCopy(cfgs, 0, map[int]float64{0: 9, 4: -3, 8: 2.5})
	got, err := pinned.Eval(garbled)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(got-want) > 1e-15 {
		t.Fatalf("reduced eval %v != substituted full eval %v", got, want)
	}

	// Gradients of stuck elements vanish: optimizers cannot move them.
	x, err := pinned.Phasors(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	grads := pinned.Partials(x)
	for k := range stuck {
		if grads[0][k] != 0 {
			t.Errorf("stuck element %d has gradient %v", k, grads[0][k])
		}
	}
	for k := range grads[1] {
		if grads[1][k] != 0 {
			break
		}
		if k == len(grads[1])-1 {
			t.Error("healthy surface lost all gradients")
		}
	}

	// Reductions compose across surfaces.
	stuckB := map[int]float64{2: 0.5}
	both := pinned.Reduce(stuckMaps(pinned, 1, stuckB))
	wantBoth, err := ch.Eval(pinnedCopy(pinnedCopy(cfgs, 0, stuck), 1, stuckB))
	if err != nil {
		t.Fatal(err)
	}
	gotBoth, err := both.Eval(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(gotBoth-wantBoth) > 1e-15 {
		t.Fatalf("chained reduction %v != substituted eval %v", gotBoth, wantBoth)
	}
}

// Reduce rejects maps that do not match the channel's shape: a map count
// other than its surfaces', a map over the wrong number of elements, or a
// line index out of range. Maps with nothing stuck return the channel
// itself.
func TestReduceStuckValidatesShape(t *testing.T) {
	sim, _, _ := twoSurfaceSim(t)
	ch := sim.NewTx(geom.V(-1, 1, 1)).Channel(geom.V(0.5, 3, 1))
	mustPanic := func(what string, maps []ControlMap) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s accepted", what)
			}
		}()
		ch.Reduce(maps)
	}
	maps := stuckMaps(ch, 0, map[int]float64{1: 0})
	mustPanic("too few maps", maps[:1])
	mustPanic("too many maps", append(maps, maps[0]))
	short := slices.Clone(maps)
	short[0] = lineMap(1, len(ch.Single[0])-1, surface.ElementWise, nil, map[int]float64{1: 0})
	mustPanic("a map over too few elements", short)
	wild := slices.Clone(maps)
	group := slices.Clone(maps[1].Group)
	group[0] = maps[1].Groups
	wild[1] = NewControlMap(maps[1].Groups, group, nil)
	mustPanic("a line index out of range", wild)

	if ch.Reduce(stuckMaps(ch, 0, nil)) != ch {
		t.Error("maps with nothing stuck rebuilt the channel")
	}
}
