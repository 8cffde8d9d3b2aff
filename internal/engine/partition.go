package engine

import (
	"fmt"
	"math"
	"sort"

	"surfos/internal/geom"
	"surfos/internal/scene"
	"surfos/internal/surface"
)

// Interference-domain partitioning: surfaces whose signals cannot reach
// each other's service areas are independent scheduling problems. The
// partition is derived from the same wall-penetration model the ray
// tracer uses (scene.SegmentGain), so "cannot affect" means "attenuated
// below a power threshold by the walls between them" — a concrete wall
// at 24 GHz costs ~46 dB, drywall ~9 dB, so rooms behind concrete land
// in disjoint domains while drywall offices stay coupled.
//
// Partitions are memoized exactly like ray traces: keyed on the scene
// pointer plus its geometry revision, so moving a wall recomputes the
// domain structure and an unchanged scene never pays for it twice.

// minCouplingDB is the power threshold (dB, relative to a clear path)
// below which two surfaces are considered mutually unreachable: they share
// a domain when the wall attenuation between them (directly, or via a
// shared probe point) stays above it. -40 dB cleanly separates
// concrete-divided rooms at mmWave while keeping glass- and
// drywall-separated spaces in one domain.
const minCouplingDB = -40.0

// probeStep is the region probe-grid spacing (meters) used to detect
// surfaces that share a service area without seeing each other directly
// (e.g. two panels around a corner serving the same room).
const probeStep = 1.0

// DomainSpec describes one partition computation.
type DomainSpec struct {
	Scene *scene.Scene
	// Surfaces are the partition nodes. Order defines the index space of
	// the resulting domains; callers should pass a stable order (the
	// hardware manager's sorted-by-ID device list).
	Surfaces []*surface.Surface
	// FreqsHz are the carrier frequencies coupling is evaluated at (the
	// registered AP bands); the most permissive band decides. Empty means
	// no band information — everything lands in one conservative domain.
	FreqsHz []float64
}

// Partition is the interference-domain decomposition of a surface set:
// Domains holds disjoint index groups into the spec's Surfaces slice,
// each sorted ascending, ordered by smallest member — deterministic for
// a given spec.
type Partition struct {
	// Rev is the scene geometry revision the partition was computed at.
	Rev     uint64
	Domains [][]int
}

// DomainOf returns the domain index owning surface index i (-1 when out
// of range).
func (p *Partition) DomainOf(i int) int {
	for d, members := range p.Domains {
		for _, m := range members {
			if m == i {
				return d
			}
		}
	}
	return -1
}

// partKey identifies a partition computation, mirroring simKey: the
// scene pointer plus revision make stale partitions unreachable the
// moment a wall moves.
type partKey struct {
	scene *scene.Scene
	rev   uint64
	surfs string // "\x00"-joined surface pointer identities
	freqs string
}

func (sp DomainSpec) key() partKey {
	fs := append([]float64(nil), sp.FreqsHz...)
	sort.Float64s(fs)
	fid := ""
	for _, f := range fs {
		fid += fmt.Sprintf("%g\x00", f)
	}
	return partKey{
		scene: sp.Scene,
		rev:   sp.Scene.Revision(),
		surfs: surfacesID(sp.Surfaces),
		freqs: fid,
	}
}

// Partition returns the memoized interference-domain partition for spec,
// computing it on first use per scene revision.
func (e *Engine) Partition(spec DomainSpec) (*Partition, error) {
	if spec.Scene == nil {
		return nil, fmt.Errorf("engine: partition spec has nil scene")
	}
	k := spec.key()
	e.mu.Lock()
	if p, ok := e.parts[k]; ok {
		e.mu.Unlock()
		e.partHits.Add(1)
		return p, nil
	}
	e.mu.Unlock()
	e.partMisses.Add(1)
	p := spec.compute()
	e.mu.Lock()
	if prior, ok := e.parts[k]; ok {
		p = prior // keep the first build so all callers share one identity
	} else {
		if e.parts == nil {
			e.parts = make(map[partKey]*Partition)
		}
		e.parts[k] = p
	}
	e.mu.Unlock()
	return p, nil
}

// couplingDB is the best-case (max over bands) wall attenuation between
// two points in power dB; -Inf when every band is fully blocked.
func (sp DomainSpec) couplingDB(a, b geom.Vec3) float64 {
	best := math.Inf(-1)
	for _, f := range sp.FreqsHz {
		g := sp.Scene.SegmentGain(a, b, f)
		if g <= 0 {
			continue
		}
		if db := 20 * math.Log10(g); db > best {
			best = db
		}
	}
	return best
}

// probePoints returns the coarse service-area probe grid: every region's
// horizontal grid at receiver-ish height, in region-name order.
func (sp DomainSpec) probePoints() []geom.Vec3 {
	names := make([]string, 0, len(sp.Scene.Regions))
	for n := range sp.Scene.Regions {
		names = append(names, n)
	}
	sort.Strings(names)
	var pts []geom.Vec3
	for _, n := range names {
		r := sp.Scene.Regions[n]
		z := r.Box.Min.Z + 1.2
		if z >= r.Box.Max.Z {
			z = (r.Box.Min.Z + r.Box.Max.Z) / 2
		}
		pts = append(pts, r.GridPoints(probeStep, z)...)
	}
	return pts
}

// compute runs the actual union-find over coupling edges.
func (sp DomainSpec) compute() *Partition {
	n := len(sp.Surfaces)
	p := &Partition{Rev: sp.Scene.Revision()}
	if n == 0 {
		return p
	}
	if len(sp.FreqsHz) == 0 {
		// No band information: conservatively one domain (a wrong merge
		// only costs performance; a wrong split costs correctness).
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		p.Domains = [][]int{all}
		return p
	}

	centers := make([]geom.Vec3, n)
	for i, s := range sp.Surfaces {
		centers[i] = s.Panel.Center()
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}

	// Direct edges: panel centers that can still hear each other through
	// the intervening walls.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if sp.couplingDB(centers[i], centers[j]) >= minCouplingDB {
				union(i, j)
			}
		}
	}
	// Shared-service-area edges: two surfaces that both reach the same
	// probe point interfere there even if they cannot see each other.
	for _, pt := range sp.probePoints() {
		first := -1
		for i := 0; i < n; i++ {
			if sp.couplingDB(centers[i], pt) < minCouplingDB {
				continue
			}
			if first < 0 {
				first = i
			} else {
				union(first, i)
			}
		}
	}

	byRoot := make(map[int][]int)
	for i := 0; i < n; i++ {
		r := find(i)
		byRoot[r] = append(byRoot[r], i)
	}
	for _, members := range byRoot {
		sort.Ints(members)
		p.Domains = append(p.Domains, members)
	}
	sort.Slice(p.Domains, func(a, b int) bool { return p.Domains[a][0] < p.Domains[b][0] })
	return p
}
