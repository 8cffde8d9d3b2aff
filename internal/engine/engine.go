// Package engine is the shared channel-evaluation engine every SurfOS
// layer computes radio state through: a memoized ray-trace cache plus a
// worker-pool parallel evaluator for grid-shaped work.
//
// The expensive operation in the stack is the image-method ray trace that
// builds an rfsim.TxContext (transmitter-side incident legs and, with
// cascading, the cross-surface coupling matrices). The orchestrator,
// experiment rigs, deployment planner, and monitor all used to rebuild
// identical contexts independently; the engine memoizes them, keyed by
// (scene revision, frequency, tx position, surface set, sim flags), with
// explicit invalidation when the scene's geometry revision changes.
// Mutating a surface *configuration* (phases live in drivers, not in the
// traced geometry) does not — and must not — invalidate trace results;
// moving a wall does, because scene.Scene bumps its Revision.
//
// All parallel evaluation is deterministic: workers write results by
// index into pre-allocated slices, so parallel output is bit-identical to
// the serial path regardless of scheduling.
package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"surfos/internal/geom"
	"surfos/internal/rfsim"
	"surfos/internal/scene"
	"surfos/internal/surface"
)

// Options tunes an Engine. Zero values select sane defaults.
type Options struct {
	// Workers bounds the fan-out of parallel evaluation. 0 means
	// runtime.GOMAXPROCS(0); 1 forces serial execution.
	Workers int
	// MaxTxContexts bounds the memoized trace cache (each TxContext holds
	// per-element incident legs for every surface). Default 128; the
	// least-recently-used entry is evicted on overflow.
	MaxTxContexts int
}

// Spec identifies one simulator configuration the engine can build and
// cache. It mirrors the tunable fields of rfsim.Simulator; identical Specs
// share a cached Simulator and its TxContexts.
type Spec struct {
	Scene  *scene.Scene
	FreqHz float64
	// Surfaces participate in the trace. Surface geometry is immutable
	// after surface.New, so pointer identity is a sound cache key.
	Surfaces []*surface.Surface

	ReflOrder           int // image-method order; 0 here means rfsim's default (1)
	Cascade             bool
	PerElementOcclusion bool
	ElementEfficiency   float64 // 0 means 1.0

	// TxPattern is the transmitter antenna pattern. Functions are not
	// comparable, so a non-nil pattern MUST be identified by a unique
	// TxPatternID for its results to be cached; with a non-nil pattern and
	// an empty ID the engine still works but bypasses the cache for this
	// spec.
	TxPattern   func(dir geom.Vec3) float64
	TxPatternID string
}

// cacheable reports whether the spec can be keyed.
func (sp Spec) cacheable() bool { return sp.TxPattern == nil || sp.TxPatternID != "" }

// simKey identifies a Simulator build. The scene pointer plus its geometry
// revision make stale traces unreachable the moment a wall moves.
type simKey struct {
	scene   *scene.Scene
	rev     uint64
	freq    float64
	surfs   string // "\x00"-joined surface pointer identities
	order   int
	cascade bool
	perElem bool
	eff     float64
	pattern string
	hasPatt bool
}

// txKey identifies a TxContext build under a given simulator.
type txKey struct {
	sim  simKey
	tx   geom.Vec3
	freq float64
}

// slot is the revision-less cache line of a key: every revision of the
// same (scene, freq, tx, surface set, flags) trace shares one slot, and
// the carry index maps each slot to its latest cached revision so a
// scene edit that cannot reach this trace re-keys it instead of
// re-tracing (per-region invalidation).
func (k txKey) slot() txKey { k.sim.rev = 0; return k }

// txEntry is a singleflight cache slot: the first goroutine to claim it
// runs the trace inside once; latecomers block on the same build instead
// of duplicating it.
type txEntry struct {
	once sync.Once
	tc   *rfsim.TxContext
	err  error
}

// Stats reports cache effectiveness, for tests and telemetry.
type Stats struct {
	TxHits     uint64
	TxMisses   uint64
	TxCarried  uint64 // traces carried across scene revisions without re-tracing
	SimHits    uint64
	SimMisses  uint64
	PartHits   uint64 // interference-domain partition cache hits
	PartMisses uint64
	TxContexts int // currently cached contexts
}

// Engine memoizes ray traces and fans grid work out over a worker pool.
// It is safe for concurrent use.
//
// The worker pool is a token budget, not a fixed goroutine set: every
// ForEach borrows spare tokens non-blockingly and always keeps the
// calling goroutine working inline, so nested fan-outs — a sensing grid
// inside an orchestrator shard reconcile — share one budget instead of
// multiplying it. An inner fan-out that finds no spare tokens degrades to
// serial on its caller's goroutine; it can never deadlock waiting for
// tokens the outer fan-out holds.
type Engine struct {
	workers int
	maxTx   int
	// spare holds the engine's workers-1 loanable concurrency tokens (the
	// caller of any fan-out is the implicit first worker).
	spare chan struct{}

	mu    sync.Mutex
	sims  map[simKey]*rfsim.Simulator
	txs   map[txKey]*txEntry
	txLRU []txKey         // oldest first; small (≤ maxTx), linear scans are fine
	carry map[txKey]txKey // slot (rev-less key) → latest cached revision's key
	parts map[partKey]*Partition

	txHits     atomic.Uint64
	txMisses   atomic.Uint64
	txCarried  atomic.Uint64
	simHits    atomic.Uint64
	simMisses  atomic.Uint64
	partHits   atomic.Uint64
	partMisses atomic.Uint64
}

// New creates an engine.
func New(opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	m := opts.MaxTxContexts
	if m <= 0 {
		m = 128
	}
	spare := make(chan struct{}, w-1)
	for i := 0; i < w-1; i++ {
		spare <- struct{}{}
	}
	return &Engine{
		workers: w,
		maxTx:   m,
		spare:   spare,
		sims:    make(map[simKey]*rfsim.Simulator),
		txs:     make(map[txKey]*txEntry),
		carry:   make(map[txKey]txKey),
		parts:   make(map[partKey]*Partition),
	}
}

// Default is the process-wide shared engine, used by layers that are not
// handed an explicit one. Sharing maximizes cache reuse across the
// orchestrator, experiments, and deployment planner.
var defaultEngine = New(Options{})

// Default returns the process-wide shared engine.
func Default() *Engine { return defaultEngine }

// Workers returns the configured fan-out width.
func (e *Engine) Workers() int { return e.workers }

func surfacesID(surfs []*surface.Surface) string {
	ids := make([]string, len(surfs))
	for i, s := range surfs {
		ids[i] = fmt.Sprintf("%p", s)
	}
	// Order-insensitive: the same surface set traced in a different order
	// yields different Single/Cross indexing, so do NOT sort for the sim
	// itself — but identical ordered sets must collide. Keep insertion
	// order; callers that want sharing should pass surfaces sorted by ID.
	return strings.Join(ids, "\x00")
}

func (sp Spec) key() simKey {
	return simKey{
		scene:   sp.Scene,
		rev:     sp.Scene.Revision(),
		freq:    sp.FreqHz,
		surfs:   surfacesID(sp.Surfaces),
		order:   sp.ReflOrder,
		cascade: sp.Cascade,
		perElem: sp.PerElementOcclusion,
		eff:     sp.ElementEfficiency,
		pattern: sp.TxPatternID,
		hasPatt: sp.TxPattern != nil,
	}
}

func (sp Spec) build() (*rfsim.Simulator, error) {
	sim, err := rfsim.New(sp.Scene, sp.FreqHz, sp.Surfaces...)
	if err != nil {
		return nil, err
	}
	if sp.ReflOrder != 0 {
		sim.ReflOrder = sp.ReflOrder
	}
	sim.Cascade = sp.Cascade
	sim.PerElementOcclusion = sp.PerElementOcclusion
	sim.ElementEfficiency = sp.ElementEfficiency
	sim.TxPattern = sp.TxPattern
	return sim, nil
}

// Simulator returns the memoized simulator for spec, building it on first
// use. Simulators are cheap (validation + field copies); they are cached
// so that TxContexts and estimator construction observe a stable identity.
func (e *Engine) Simulator(spec Spec) (*rfsim.Simulator, error) {
	if spec.Scene == nil {
		return nil, fmt.Errorf("engine: spec has nil scene")
	}
	if !spec.cacheable() {
		e.simMisses.Add(1)
		return spec.build()
	}
	k := spec.key()
	e.mu.Lock()
	if sim, ok := e.sims[k]; ok {
		e.mu.Unlock()
		e.simHits.Add(1)
		return sim, nil
	}
	e.mu.Unlock()
	e.simMisses.Add(1)
	sim, err := spec.build()
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	// Another goroutine may have raced the build; keep the first so all
	// callers share one identity.
	if prior, ok := e.sims[k]; ok {
		sim = prior
	} else {
		e.sims[k] = sim
	}
	e.mu.Unlock()
	return sim, nil
}

// Tx returns the memoized transmitter context for spec at the spec's
// carrier frequency. The first call per (scene revision, frequency, tx,
// surface set, flags) runs the image-method trace; subsequent calls are
// cache hits. Concurrent misses on the same key trace once.
func (e *Engine) Tx(ctx context.Context, spec Spec, tx geom.Vec3) (*rfsim.TxContext, error) {
	return e.TxAt(ctx, spec, tx, spec.FreqHz)
}

// TxAt is Tx at an explicit frequency (wideband sensing sweeps subcarriers).
func (e *Engine) TxAt(ctx context.Context, spec Spec, tx geom.Vec3, freqHz float64) (*rfsim.TxContext, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if !spec.cacheable() {
		e.txMisses.Add(1)
		sim, err := spec.build()
		if err != nil {
			return nil, err
		}
		return sim.NewTxAt(tx, freqHz), nil
	}
	sim, err := e.Simulator(spec)
	if err != nil {
		return nil, err
	}
	k := txKey{sim: spec.key(), tx: tx, freq: freqHz}

	e.mu.Lock()
	ent, ok := e.txs[k]
	if ok {
		e.touchLocked(k)
		e.mu.Unlock()
		e.txHits.Add(1)
		ent.once.Do(func() { ent.tc = sim.NewTxAt(tx, freqHz) })
		return ent.tc, ent.err
	}
	prev, hasPrev := e.carry[k.slot()]
	e.mu.Unlock()

	// Per-region invalidation: a cached trace from an older scene
	// revision stays valid when every edit since then is radio-decoupled
	// from this trace's transmitter and surfaces — carry it to the new
	// revision instead of re-tracing. (The receiver side is computed live
	// by TxContext.Channel against the shared scene, so only the tx-side
	// legs and coupling matrices are frozen in the context.)
	if hasPrev && prev != k {
		if cent, carried := e.tryCarry(spec, tx, freqHz, k, prev); cent != nil {
			if carried {
				e.txCarried.Add(1)
			} else {
				e.txHits.Add(1)
			}
			cent.once.Do(func() { cent.tc = sim.NewTxAt(tx, freqHz) })
			return cent.tc, cent.err
		}
	}

	e.mu.Lock()
	ent, ok = e.txs[k]
	if ok {
		e.touchLocked(k)
	} else {
		ent = &txEntry{}
		e.txs[k] = ent
		e.txLRU = append(e.txLRU, k)
		e.carry[k.slot()] = k
		e.evictLocked()
	}
	e.mu.Unlock()

	if ok {
		e.txHits.Add(1)
	} else {
		e.txMisses.Add(1)
	}
	ent.once.Do(func() { ent.tc = sim.NewTxAt(tx, freqHz) })
	return ent.tc, ent.err
}

// tryCarry attempts to re-key the cached entry at prev (an older scene
// revision of k's slot) under k. It returns the entry and whether it was
// carried (false means a racing goroutine already filled k — a plain
// hit). nil means the carry is not possible: the edit history is
// unknowable, an edit could affect the trace, or the entry was evicted.
func (e *Engine) tryCarry(spec Spec, tx geom.Vec3, freqHz float64, k, prev txKey) (*txEntry, bool) {
	edits, known := spec.Scene.EditsSince(prev.sim.rev)
	if !known {
		return nil, false
	}
	for _, b := range edits {
		if editAffects(spec, tx, freqHz, b) {
			return nil, false
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if ent, ok := e.txs[k]; ok { // a racer built or carried it first
		e.touchLocked(k)
		return ent, false
	}
	ent, ok := e.txs[prev]
	if !ok { // evicted since the index lookup
		return nil, false
	}
	delete(e.txs, prev)
	e.removeLRULocked(prev)
	e.txs[k] = ent
	e.txLRU = append(e.txLRU, k)
	e.carry[k.slot()] = k
	return ent, true
}

// editAffects reports whether an edit with dirty bounds box could change
// the tx-side trace of spec at tx: true when the edited geometry is
// radio-coupled — above the interference-domain threshold, evaluated
// against the current walls — to the transmitter or any participating
// surface. An edit that only sub-threshold coupling connects to the
// trace (e.g. a partition toggled behind concrete) is definitionally
// unable to change it more than the domain model already ignores.
func editAffects(spec Spec, tx geom.Vec3, freqHz float64, box geom.AABB) bool {
	targets := make([]geom.Vec3, 0, len(spec.Surfaces)+1)
	targets = append(targets, tx)
	for _, s := range spec.Surfaces {
		targets = append(targets, s.Panel.Center())
	}
	for _, p := range probeAABB(box) {
		for _, t := range targets {
			g := spec.Scene.SegmentGain(p, t, freqHz)
			if g > 0 && 20*math.Log10(g) >= minCouplingDB {
				return true
			}
		}
	}
	return false
}

// probeAABB returns the coupling probe points of a dirty box: its center
// and eight corners.
func probeAABB(b geom.AABB) []geom.Vec3 {
	return []geom.Vec3{
		b.Center(),
		b.Min,
		geom.V(b.Max.X, b.Min.Y, b.Min.Z),
		geom.V(b.Min.X, b.Max.Y, b.Min.Z),
		geom.V(b.Max.X, b.Max.Y, b.Min.Z),
		geom.V(b.Min.X, b.Min.Y, b.Max.Z),
		geom.V(b.Max.X, b.Min.Y, b.Max.Z),
		geom.V(b.Min.X, b.Max.Y, b.Max.Z),
		b.Max,
	}
}

// removeLRULocked deletes k from the LRU order. Caller holds e.mu.
func (e *Engine) removeLRULocked(k txKey) {
	for i := range e.txLRU {
		if e.txLRU[i] == k {
			e.txLRU = append(e.txLRU[:i], e.txLRU[i+1:]...)
			return
		}
	}
}

// touchLocked moves k to the most-recently-used end. Caller holds e.mu.
func (e *Engine) touchLocked(k txKey) {
	for i := range e.txLRU {
		if e.txLRU[i] == k {
			copy(e.txLRU[i:], e.txLRU[i+1:])
			e.txLRU[len(e.txLRU)-1] = k
			return
		}
	}
}

// evictLocked drops the least-recently-used entries beyond maxTx. Caller
// holds e.mu.
func (e *Engine) evictLocked() {
	for len(e.txLRU) > e.maxTx {
		old := e.txLRU[0]
		e.txLRU = e.txLRU[1:]
		delete(e.txs, old)
		if e.carry[old.slot()] == old {
			delete(e.carry, old.slot())
		}
	}
}

// Invalidate drops every cached simulator and trace. Scene geometry
// changes are keyed automatically via scene.Revision; Invalidate is the
// explicit hammer for out-of-band mutations (e.g. editing a surface's
// panel in place, which the engine cannot observe).
func (e *Engine) Invalidate() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sims = make(map[simKey]*rfsim.Simulator)
	e.txs = make(map[txKey]*txEntry)
	e.txLRU = nil
	e.carry = make(map[txKey]txKey)
	e.parts = make(map[partKey]*Partition)
}

// CacheStats returns hit/miss counters and the live context count.
func (e *Engine) CacheStats() Stats {
	e.mu.Lock()
	n := len(e.txs)
	e.mu.Unlock()
	return Stats{
		TxHits:     e.txHits.Load(),
		TxMisses:   e.txMisses.Load(),
		TxCarried:  e.txCarried.Load(),
		SimHits:    e.simHits.Load(),
		SimMisses:  e.simMisses.Load(),
		PartHits:   e.partHits.Load(),
		PartMisses: e.partMisses.Load(),
		TxContexts: n,
	}
}

// ctxErr tolerates nil contexts (internal callers pass Background anyway).
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// ForEach runs fn(i) for every i in [0, n) across the worker pool and
// blocks until all complete or ctx is canceled. It borrows up to n-1
// spare tokens without blocking and returns them when it is done; the
// calling goroutine always works inline, so a fan-out that finds the
// tokens loaned out (a nested ForEach, a contended engine) is simply
// narrower — possibly serial — and can never deadlock against its own
// outer fan-out. Iterations already started when cancellation lands run
// to completion; unstarted ones are skipped, and the ctx error is
// returned so callers know the result is partial. fn must be safe for
// concurrent invocation with distinct indices; writing out[i] from fn(i)
// yields deterministic, serial-identical results.
func (e *Engine) ForEach(ctx context.Context, n int, fn func(i int)) error {
	extra := 0
borrow:
	for extra < n-1 {
		select {
		case <-e.spare:
			extra++
		default:
			break borrow
		}
	}
	defer func() {
		for i := 0; i < extra; i++ {
			e.spare <- struct{}{}
		}
	}()
	var next atomic.Int64
	next.Store(-1)
	work := func() {
		for ctxErr(ctx) == nil {
			i := next.Add(1)
			if i >= int64(n) {
				return
			}
			fn(int(i))
		}
	}
	var wg sync.WaitGroup
	wg.Add(extra)
	for w := 0; w < extra; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return ctxErr(ctx)
}

// Channels evaluates the channel at every point in pts in parallel,
// returning them in input order (out[i] corresponds to pts[i]). The
// transmitter trace is served from the cache.
func (e *Engine) Channels(ctx context.Context, spec Spec, tx geom.Vec3, pts []geom.Vec3) ([]*rfsim.Channel, error) {
	return e.ChannelsAt(ctx, spec, tx, spec.FreqHz, pts)
}

// ChannelsAt is Channels at an explicit frequency.
func (e *Engine) ChannelsAt(ctx context.Context, spec Spec, tx geom.Vec3, freqHz float64, pts []geom.Vec3) ([]*rfsim.Channel, error) {
	tc, err := e.TxAt(ctx, spec, tx, freqHz)
	if err != nil {
		return nil, err
	}
	out := make([]*rfsim.Channel, len(pts))
	if err := e.ForEach(ctx, len(pts), func(i int) {
		out[i] = tc.Channel(pts[i])
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// SortedSurfaces returns surfs ordered by name — the canonical ordering
// callers should use when assembling Specs so that independently built
// specs over the same device set share cache entries.
func SortedSurfaces(surfs []*surface.Surface) []*surface.Surface {
	out := append([]*surface.Surface(nil), surfs...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
