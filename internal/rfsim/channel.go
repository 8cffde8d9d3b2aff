package rfsim

import (
	"fmt"
	"sync"

	"surfos/internal/em"
	"surfos/internal/surface"
)

// Channel is the analytic decomposition of one tx→rx link at one frequency
// as a function of the surface configurations:
//
//	h(x) = Direct + Σ_s Σ_k Single[s][k]·x_sk + Σ_blocks Σ_km M_km·x_Ak·x_Bm
//
// where x_sk = e^{jφ_sk} is element k of surface s's phasor.
type Channel struct {
	Freq   float64
	Direct complex128
	// Single[s][k] is the one-bounce coefficient of element k of surface s.
	Single [][]complex128
	// Cross holds two-surface cascade blocks (ordered: tx→A→B→rx).
	Cross []CrossBlock
}

// CrossBlock is the cascade coefficient matrix for an ordered surface pair.
type CrossBlock struct {
	A, B int
	M    [][]complex128 // M[k][m]: via element k of A then element m of B
}

// Phasors converts per-surface phase configurations into element phasor
// vectors x_sk = e^{jφ_sk}. Configurations must be phase-property and match
// the coefficient shapes.
func (ch *Channel) Phasors(cfgs []surface.Config) ([][]complex128, error) {
	var b em.PhasorBuf
	return ch.phasorsInto(&b, cfgs)
}

// phasorsInto validates cfgs and converts them through a reusable buffer.
func (ch *Channel) phasorsInto(b *em.PhasorBuf, cfgs []surface.Config) ([][]complex128, error) {
	if len(cfgs) != len(ch.Single) {
		return nil, fmt.Errorf("rfsim: %d configs for %d surfaces", len(cfgs), len(ch.Single))
	}
	b.Reset(len(cfgs))
	for s, cfg := range cfgs {
		if cfg.Property != surface.Phase {
			return nil, fmt.Errorf("rfsim: surface %d config has property %v, want phase", s, cfg.Property)
		}
		if len(cfg.Values) != len(ch.Single[s]) {
			return nil, fmt.Errorf("rfsim: surface %d config has %d values, want %d",
				s, len(cfg.Values), len(ch.Single[s]))
		}
		b.Append(cfg.Values)
	}
	return b.Rows(), nil
}

// phasorPool recycles conversion scratch across Eval calls. Heatmap-style
// workloads evaluate hundreds of channels per pass (often concurrently via
// the engine worker pool), so per-call phasor allocation dominated the
// profile; pooling makes steady-state Eval allocation-free and keeps it safe
// for concurrent use across goroutines.
var phasorPool = sync.Pool{New: func() any { return new(em.PhasorBuf) }}

// Eval computes h for the given per-surface phase configurations.
func (ch *Channel) Eval(cfgs []surface.Config) (complex128, error) {
	b := phasorPool.Get().(*em.PhasorBuf)
	x, err := ch.phasorsInto(b, cfgs)
	if err != nil {
		phasorPool.Put(b)
		return 0, err
	}
	h := ch.EvalPhasors(x)
	phasorPool.Put(b)
	return h, nil
}

// EvalPhasors computes h from precomputed element phasors (hot path for
// optimizers, which update x incrementally).
func (ch *Channel) EvalPhasors(x [][]complex128) complex128 {
	h := ch.Direct
	for s, coeffs := range ch.Single {
		xs := x[s]
		for k, c := range coeffs {
			if c != 0 {
				h += c * xs[k]
			}
		}
	}
	for _, blk := range ch.Cross {
		xa, xb := x[blk.A], x[blk.B]
		for k, row := range blk.M {
			if xa[k] == 0 {
				continue
			}
			var acc complex128
			for m, c := range row {
				if c != 0 {
					acc += c * xb[m]
				}
			}
			h += xa[k] * acc
		}
	}
	return h
}

// Partials returns dh/dφ_sk for every element, given the phasors x:
//
//	dh/dφ_sk = j·x_sk·( Single[s][k]
//	                  + Σ_{blocks A=s} Σ_m M[k][m]·x_Bm
//	                  + Σ_{blocks B=s} Σ_k' M[k'][k]·x_Ak' )
//
// The result is shaped like Single. Cost is O(total elements + cross size).
func (ch *Channel) Partials(x [][]complex128) [][]complex128 {
	return ch.PartialsInto(x, nil)
}

// PartialsInto is Partials with caller-owned scratch: when out already has
// the channel's shape its storage is reused, otherwise a fresh buffer is
// allocated. It returns the buffer actually used, so optimizer loops can
// thread one gradient scratch through every call.
func (ch *Channel) PartialsInto(x, out [][]complex128) [][]complex128 {
	if len(out) != len(ch.Single) {
		out = make([][]complex128, len(ch.Single))
	}
	for s, coeffs := range ch.Single {
		if len(out[s]) != len(coeffs) {
			out[s] = make([]complex128, len(coeffs))
		}
		copy(out[s], coeffs)
	}
	for _, blk := range ch.Cross {
		xa, xb := x[blk.A], x[blk.B]
		da, db := out[blk.A], out[blk.B]
		for k, row := range blk.M {
			var acc complex128
			for m, c := range row {
				if c == 0 {
					continue
				}
				acc += c * xb[m]
				db[m] += c * xa[k]
			}
			da[k] += acc
		}
	}
	for s := range out {
		xs := x[s]
		for k := range out[s] {
			out[s][k] *= complex(0, 1) * xs[k]
		}
	}
	return out
}

// NumElements returns the per-surface element counts of the decomposition.
func (ch *Channel) NumElements() []int {
	n := make([]int, len(ch.Single))
	for i, s := range ch.Single {
		n[i] = len(s)
	}
	return n
}
