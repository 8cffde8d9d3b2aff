package orchestrator

import (
	"surfos/internal/surface"
)

// Multiplexing strategies (paper §3.2 "task multiplexing"): the minimal
// resource unit is a slice of time, frequency and space; joint
// configuration multiplexing is the fourth axis the paper highlights.
const (
	StrategySolo  = "solo"  // one task owns the band's surfaces
	StrategySDM   = "sdm"   // space division: surfaces partitioned by task
	StrategyTDM   = "tdm"   // time division: codebook slots rotate by share
	StrategyJoint = "joint" // configuration multiplexing: one shared config
)

// MultiplexPolicy selects how same-band tasks share hardware.
type MultiplexPolicy uint8

// Policies. PolicyAuto picks SDM when surfaces outnumber tasks, joint
// multiplexing for small differentiable task sets or whenever a passive
// surface is involved (a passive surface has exactly one configuration, so
// configuration multiplexing is its only sharing mechanism), and TDM
// otherwise.
const (
	PolicyAuto MultiplexPolicy = iota
	PolicyTDM
	PolicyJoint
	PolicySDM
)

// String implements fmt.Stringer.
func (p MultiplexPolicy) String() string {
	switch p {
	case PolicyAuto:
		return "auto"
	case PolicyTDM:
		return "tdm"
	case PolicyJoint:
		return "joint"
	case PolicySDM:
		return "sdm"
	}
	return "policy(?)"
}

// PlanEntry is one time slot's worth of configurations: which tasks it
// serves, its time share, and the per-device configs.
type PlanEntry struct {
	Label   string
	TaskIDs []int
	Share   float64
	Configs map[string]surface.Config
}

// Plan is the scheduler's output for one frequency group.
type Plan struct {
	FreqHz   float64
	APID     string
	Surfaces []string
	Strategy string
	Entries  []PlanEntry

	frame []int // expanded TDM frame of entry indices
	pos   int
}

// frameSlots is the shortest TDM frame; shares are realized by
// largest-remainder apportionment over the frame's slots.
const frameSlots = 10

// buildFrame expands entry shares into a deterministic rotation frame of
// max(frameSlots, len(Entries)) slots in which every entry holds at least
// one: a task the plan reports running is a task Tick selects.
func (p *Plan) buildFrame() {
	p.frame = p.frame[:0]
	if len(p.Entries) == 0 {
		return
	}
	if len(p.Entries) == 1 {
		p.frame = append(p.frame, 0)
		return
	}
	slots := max(frameSlots, len(p.Entries))
	var total float64
	for _, e := range p.Entries {
		total += e.Share
	}
	if total <= 0 {
		total = float64(len(p.Entries))
	}
	// Largest-remainder apportionment.
	counts := make([]int, len(p.Entries))
	remainders := make([]float64, len(p.Entries))
	used := 0
	for i, e := range p.Entries {
		exact := e.Share / total * float64(slots)
		counts[i] = int(exact)
		remainders[i] = exact - float64(counts[i])
		used += counts[i]
	}
	for used < slots {
		best := 0
		for i := 1; i < len(remainders); i++ {
			if remainders[i] > remainders[best] {
				best = i
			}
		}
		counts[best]++
		remainders[best] = -1
		used++
	}
	// An entry apportioned nothing takes a slot from the largest holder;
	// slots >= len(Entries), so one with two or more always exists.
	for i := range counts {
		if counts[i] > 0 {
			continue
		}
		donor := 0
		for j := range counts {
			if counts[j] > counts[donor] {
				donor = j
			}
		}
		counts[donor]--
		counts[i]++
	}
	// Interleave entries round-robin by remaining counts so no task waits
	// a whole frame for its slots.
	for len(p.frame) < slots {
		for i := range counts {
			if counts[i] > 0 {
				p.frame = append(p.frame, i)
				counts[i]--
			}
		}
	}
}

// dropTasks removes the tasks drop names from every entry's roster;
// entries left serving nobody go, and the frame is rebuilt. A plan that
// loses nothing is not written to, and Entries is replaced, never edited
// in place: Plans() hands out live plans and reapply holds snapshots.
func (p *Plan) dropTasks(drop func(taskID int) bool) {
	entries := p.Entries[:0:0]
	changed := false
	for _, e := range p.Entries {
		ids := e.TaskIDs[:0:0]
		for _, tid := range e.TaskIDs {
			if !drop(tid) {
				ids = append(ids, tid)
			}
		}
		changed = changed || len(ids) < len(e.TaskIDs)
		if len(ids) > 0 {
			e.TaskIDs = ids
			entries = append(entries, e)
		}
	}
	if changed {
		p.Entries = entries
		p.buildFrame()
	}
}

// nextSlot advances the TDM rotation and returns the entry index to
// activate.
func (p *Plan) nextSlot() int {
	if len(p.frame) == 0 {
		return -1
	}
	idx := p.frame[p.pos%len(p.frame)]
	p.pos++
	return idx
}

// shareOf returns the realized frame share of entry i.
func (p *Plan) shareOf(i int) float64 {
	if len(p.frame) == 0 {
		return 0
	}
	n := 0
	for _, e := range p.frame {
		if e == i {
			n++
		}
	}
	return float64(n) / float64(len(p.frame))
}
