package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"surfos/internal/scenario"
	"surfos/internal/scene"
)

// Op kinds: the per-kind latency lines of the report are keyed by these.
const (
	kindLink            = "link"
	kindPower           = "power"
	kindSecure          = "secure"
	kindCoverage        = "coverage"
	kindEnd             = "end"
	kindToggle          = "toggle" // apt-fanout's op: an idle half and a resume half
	kindIdle            = "idle"
	kindResume          = "resume"
	kindMove            = "move"
	kindHandoff         = "handoff"
	kindWallEdit        = "wall_edit"
	kindDeviceDead      = "device_dead"
	kindDeviceRecovered = "device_recovered"
	kindBoot            = "boot"
)

// allKinds is every op kind in report order.
var allKinds = []string{
	kindLink, kindPower, kindSecure, kindCoverage, kindEnd, kindIdle, kindResume,
	kindMove, kindHandoff, kindWallEdit, kindDeviceDead, kindDeviceRecovered, kindBoot,
}

// op is one generated input. Which fields matter depends on kind.
type op struct {
	kind      string
	utterance string     // demand kinds
	reads     bool       // toggle: follow with a ListTasks and a HealthFull
	resident  int        // move/handoff: index of the resident task
	room      int        // move/handoff: destination room; wall_edit: edited room
	pos       [3]float64 // move/handoff: new endpoint position
	off       float64    // wall_edit: the screen's new offset
	device    string     // device_dead/device_recovered
	// events is how many lifecycle events the op must put on every watcher
	// stream, by the generator's model of the plant: the exact-delivery
	// check adds them up.
	events int
}

func (o op) String() string {
	return fmt.Sprintf("%s|%s|%t|%d|%d|%.6f,%.6f,%.6f|%.3f|%s|%d",
		o.kind, o.utterance, o.reads, o.resident, o.room, o.pos[0], o.pos[1], o.pos[2], o.off, o.device, o.events)
}

// generator yields a workload's op sequence. It is a pure function of the
// seed: it draws only from the scenario engine's seeded RNG and keeps its
// own model of the plant (who lives in which room, which panel is down),
// never looking at the program under test.
type generator func() op

// demands is the apt-demand cycle: seven point-target profiles and one
// coverage complaint, one service call each. Profiles that expand to
// EnableSensing are left out (see README: one such demand takes minutes).
var demands = []struct{ kind, utterance string }{
	{kindLink, "stream a movie tonight"},
	{kindLink, "game night on the console"},
	{kindLink, "start a gaming session"},
	{kindPower, "charge my phone"},
	{kindSecure, "send a confidential report"},
	{kindLink, "backup my laptop"},
	{kindPower, "power the sensors"},
	{kindCoverage, "there is a dead zone in here"},
}

func genAptDemand(rng *rand.Rand) generator {
	var cycle []int
	return func() op {
		if len(cycle) == 0 {
			cycle = rng.Perm(len(demands))
		}
		d := demands[cycle[0]]
		cycle = cycle[1:]
		// submitted, scheduled, running, and done once the driver ends it.
		return op{kind: d.kind, utterance: d.utterance, events: 4}
	}
}

func genAptFanout(*rand.Rand) generator {
	i := 0
	return func() op {
		i++
		// idle, then resumed, scheduled, running.
		return op{kind: kindToggle, reads: i%2 == 0, events: 4}
	}
}

// roomPos draws an endpoint position inside room r, clear of the walls.
func roomPos(rng *rand.Rand, r int) [3]float64 {
	return [3]float64{
		scene.RoomW*float64(r) + 0.8 + 3.4*rng.Float64(),
		0.8 + 3.4*rng.Float64(),
		1.2,
	}
}

// screenOffsets are the positions a room's drywall screen cycles through.
var screenOffsets = []float64{0, 0.3, 0.6, 0.9}

// churnKinds is one strip-churn block before shuffling: 6 in-room moves, a
// handoff, 2 wall edits, and one device event (death and recovery
// alternate from block to block).
var churnKinds = []string{
	kindMove, kindMove, kindMove, kindMove, kindMove, kindMove,
	kindHandoff, kindWallEdit, kindWallEdit, kindDeviceDead,
}

func genStripChurn(rng *rand.Rand) generator {
	// The generator's model of the plant: resident i starts in room
	// i%stripRooms (where gridPos puts it), every screen at offset 0, every
	// panel alive.
	home := make([]int, residents)
	pop := make([]int, stripRooms)
	for i := range home {
		home[i] = i % stripRooms
		pop[home[i]]++
	}
	// A re-plan of room r's domain publishes scheduled and running for each
	// of its residents.
	replan := func(r int) int { return 2 * pop[r] }
	screen := make([]int, stripRooms)
	dead, deadRoom := "", 0
	var block []string
	return func() op {
		if len(block) == 0 {
			block = append(block, churnKinds...)
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		kind := block[0]
		block = block[1:]
		switch kind {
		case kindMove:
			i := rng.Intn(residents)
			return op{kind: kind, resident: i, room: home[i], pos: roomPos(rng, home[i]), events: replan(home[i])}
		case kindHandoff:
			// Fullest room to emptiest, so every room keeps 15-17 residents
			// and the optimizer always sees a 16-task group.
			from, to := 0, 0
			for r := range pop {
				if pop[r] > pop[from] {
					from = r
				}
				if pop[r] < pop[to] {
					to = r
				}
			}
			if from == to {
				to = (from + 1 + rng.Intn(stripRooms-1)) % stripRooms
			}
			var in []int
			for i, r := range home {
				if r == from {
					in = append(in, i)
				}
			}
			i := in[rng.Intn(len(in))]
			home[i] = to
			pop[from]--
			pop[to]++
			// The handoff event, then the destination's re-plan; the room left
			// behind only has the task's entries released.
			return op{kind: kind, resident: i, room: to, pos: roomPos(rng, to), events: 1 + replan(to)}
		case kindWallEdit:
			r := rng.Intn(stripRooms)
			screen[r] = (screen[r] + 1 + rng.Intn(len(screenOffsets)-1)) % len(screenOffsets)
			return op{kind: kind, room: r, off: screenOffsets[screen[r]], events: replan(r)}
		default:
			// The health transition, the self-heal re-plan, its marker.
			if dead != "" {
				o := op{kind: kindDeviceRecovered, device: dead, events: 2 + replan(deadRoom)}
				dead = ""
				return o
			}
			deadRoom = rng.Intn(stripRooms)
			dead = stripDevice(deadRoom, rng.Intn(2))
			return op{kind: kindDeviceDead, device: dead, events: 2 + replan(deadRoom)}
		}
	}
}

func genStripBoot(*rand.Rand) generator {
	return func() op { return op{kind: kindBoot} }
}

// seedRNG is the one source of randomness: the scenario engine's RNG.
func seedRNG(seed int64) *rand.Rand { return scenario.New(seed).Rand() }

// scheduleHash fingerprints the first n ops a workload generates from seed.
func scheduleHash(w *workload, seed int64, n int) string {
	g := w.gen(seedRNG(seed))
	h := sha256.New()
	for i := 0; i < n; i++ {
		fmt.Fprintln(h, g())
	}
	return hex.EncodeToString(h.Sum(nil))
}
