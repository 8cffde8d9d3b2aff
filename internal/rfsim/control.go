package rfsim

import (
	"fmt"
	"math/cmplx"
)

// ControlMap describes how one surface's element phases follow its control
// lines — the hardware's control space. A driven element k realizes
// θ[Group[k]] + Offset[k], where θ holds one phase per control line and
// Offset[k] is the fabricated bias; a stuck element (Group[k] < 0) holds
// Offset[k], its frozen phase, whatever is requested. NewControlMap caches
// the offset phasors. A map is read-only once built: its slices may be
// shared with the driver that made it.
type ControlMap struct {
	// Groups is the number of control lines (free phases).
	Groups int
	// Group[k] is the control line driving element k, or -1 when k is
	// stuck.
	Group []int
	// Offset[k] is element k's bias when driven, its frozen phase when
	// stuck (nil: no bias and nothing stuck).
	Offset []float64

	phasor []complex128 // e^{j·Offset[k]}, cached by NewControlMap
}

// rot returns e^{j·Offset[k]}.
func (m ControlMap) rot(k int) complex128 {
	switch {
	case m.Offset == nil:
		return 1
	case m.phasor != nil:
		return m.phasor[k]
	}
	return cmplx.Rect(1, m.Offset[k])
}

// NewControlMap builds the map of a surface with len(group) elements and
// groups control lines. offset may be nil.
func NewControlMap(groups int, group []int, offset []float64) ControlMap {
	m := ControlMap{Groups: groups, Group: group, Offset: offset}
	if offset != nil {
		m.phasor = make([]complex128, len(offset))
		for k, v := range offset {
			m.phasor[k] = cmplx.Rect(1, v)
		}
	}
	return m
}

// ElementMap is the control map of n independently driven, unbiased
// elements: the control space is the element space.
func ElementMap(n int) ControlMap {
	group := make([]int, n)
	for k := range group {
		group[k] = k
	}
	return NewControlMap(n, group, nil)
}

// Identity reports whether the control space is the element space: every
// element its own line, in order, unbiased, nothing stuck.
func (m ControlMap) Identity() bool {
	if m.Offset != nil || m.Groups != len(m.Group) {
		return false
	}
	for k, g := range m.Group {
		if g != k {
			return false
		}
	}
	return true
}

// Expand maps control phases θ (one per line) to element phases.
func (m ControlMap) Expand(theta []float64) []float64 {
	out := make([]float64, len(m.Group))
	for k, g := range m.Group {
		if g >= 0 {
			out[k] = theta[g]
		}
		if m.Offset != nil {
			out[k] += m.Offset[k]
		}
	}
	return out
}

// Fold reduces per-element coefficients c to per-line ones: each line's
// coefficient is Σ c_k·e^{j·Offset[k]} over the elements it drives, and the
// stuck elements' terms, at their frozen phases, sum into fixed. A linear
// form Σ c_k·x_k at element phases Expand(θ) equals fixed + Σ_g out_g·e^{jθ_g}.
func (m ControlMap) Fold(c []complex128) (out []complex128, fixed complex128) {
	if len(c) != len(m.Group) {
		panic(fmt.Sprintf("rfsim: %d coefficients for a %d-element control map", len(c), len(m.Group)))
	}
	out = make([]complex128, m.Groups)
	for k, v := range c {
		if v == 0 {
			continue
		}
		if m.Offset != nil {
			v *= m.rot(k)
		}
		if g := m.Group[k]; g >= 0 {
			out[g] += v
		} else {
			fixed += v
		}
	}
	return out, fixed
}

// allIdentity reports whether every map is the identity.
func allIdentity(maps []ControlMap) bool {
	for _, m := range maps {
		if !m.Identity() {
			return false
		}
	}
	return true
}

// ExpandAll applies each surface's map to its control phases.
func ExpandAll(maps []ControlMap, theta [][]float64) [][]float64 {
	out := make([][]float64, len(maps))
	for s, m := range maps {
		out[s] = m.Expand(theta[s])
	}
	return out
}

// Reduce builds the channel over control variables: Single[s][g] sums the
// bias-rotated coefficients of the elements line g drives, stuck elements
// fold into Direct at their frozen phases, and each cascade block is summed
// over line pairs, its stuck rows and columns folding into the other
// surface's lines or into Direct. A block with a side that has no lines (a
// fabricated passive panel, every element held) folds wholly into the other
// side's lines and Direct, leaving no Cross block. The result is exact, not
// approximate: h depends on a line's phase only through that sum, so the
// reduced channel at θ equals this channel at ExpandAll(maps, θ). maps must
// match the channel's shape; when every map is the identity the channel
// itself is returned.
func (ch *Channel) Reduce(maps []ControlMap) *Channel {
	if len(maps) != len(ch.Single) {
		panic(fmt.Sprintf("rfsim: %d control maps for %d surfaces", len(maps), len(ch.Single)))
	}
	if allIdentity(maps) {
		return ch
	}
	out := &Channel{Freq: ch.Freq, Direct: ch.Direct, Single: make([][]complex128, len(ch.Single))}
	for s, coeffs := range ch.Single {
		var fixed complex128
		out.Single[s], fixed = maps[s].Fold(coeffs)
		out.Direct += fixed
	}
	for _, blk := range ch.Cross {
		ma, mb := maps[blk.A], maps[blk.B]
		if ma.Groups == 0 {
			out.Direct += foldHeldRows(blk, ma, mb, out.Single[blk.B])
			continue
		}
		// Fold B's side of every row, then A's side of the folded rows.
		rows := make([][]complex128, len(blk.M))
		rowFixed := make([]complex128, len(blk.M))
		for k, row := range blk.M {
			rows[k], rowFixed[k] = mb.Fold(row)
		}
		cp := CrossBlock{A: blk.A, B: blk.B, M: make([][]complex128, ma.Groups)}
		for g := range cp.M {
			cp.M[g] = make([]complex128, mb.Groups)
		}
		dstA, dstB := out.Single[blk.A], out.Single[blk.B]
		for k, row := range rows {
			rot := ma.rot(k)
			// Element k of A against B's frozen elements is a single term
			// of A (or, when k is stuck too, a constant).
			if ga := ma.Group[k]; ga >= 0 {
				dstA[ga] += rowFixed[k] * rot
				for h, c := range row {
					cp.M[ga][h] += c * rot
				}
			} else {
				out.Direct += rowFixed[k] * rot
				for h, c := range row {
					dstB[h] += c * rot
				}
			}
		}
		if mb.Groups > 0 { // else every term folded above
			out.Cross = append(out.Cross, cp)
		}
	}
	return out
}

// foldHeldRows reduces a cascade block whose A side has no lines: it sums
// the rows at A's held phases in element space, then folds the sum once
// over B's map (folding row by row would cost a fold per A element), adding
// the line coefficients to dstB. It returns the constant part.
func foldHeldRows(blk CrossBlock, ma, mb ControlMap, dstB []complex128) complex128 {
	sum := make([]complex128, len(mb.Group))
	for k, row := range blk.M {
		rot := ma.rot(k)
		for m, c := range row {
			sum[m] += c * rot
		}
	}
	lines, fixed := mb.Fold(sum)
	for g, v := range lines {
		dstB[g] += v
	}
	return fixed
}
