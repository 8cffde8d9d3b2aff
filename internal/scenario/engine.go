// Package scenario is a deterministic discrete-event engine for driving
// a live SurfOS daemon stack through scripted churn: users walking
// between rooms, tasks arriving and departing on a Poisson process,
// walls and doors toggling, surfaces joining and leaving.
//
// The engine owns a virtual clock and a seeded RNG; events execute
// strictly in (time, insertion) order on the caller's goroutine, so the
// same seed replays the same timeline byte for byte. Wall-clock time
// never enters the loop: a hook advances the orchestrator's virtual clock
// to each event's virtual timestamp, which means a 10-minute mobility scenario runs in however long its
// optimizations take, and its rendered timeline is golden-checkable.
package scenario

import (
	"container/heap"
	"context"
	"fmt"
	"math/rand"
	"time"
)

// Epoch anchors the virtual clock. It matches the orchestrator's
// convention of starting its clock at the Unix epoch, so task deadlines
// line up with scenario timestamps.
var Epoch = time.Unix(0, 0)

// Action is one scheduled event's body. The returned note is recorded on
// the timeline next to the event's name (empty for no annotation).
type Action func(ctx context.Context) (note string, err error)

// Record is one executed event on the timeline.
type Record struct {
	At   time.Duration
	Name string
	Note string
}

func (r Record) String() string {
	if r.Note == "" {
		return fmt.Sprintf("%8s  %s", r.At, r.Name)
	}
	return fmt.Sprintf("%8s  %-24s %s", r.At, r.Name, r.Note)
}

// event is one queued entry; seq breaks same-instant ties by insertion
// order so simultaneous events never reorder between runs.
type event struct {
	at   time.Duration
	seq  uint64
	name string
	do   Action
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// Engine is the discrete-event loop. Not safe for concurrent use: the
// whole point is a single deterministic thread of control.
type Engine struct {
	rng      *rand.Rand
	now      time.Duration
	seq      uint64
	q        eventQueue
	timeline []Record

	// OnAdvance fires whenever the clock moves forward, before the event
	// at the new instant runs — the place to tick the orchestrator's
	// virtual clock by the same dt.
	OnAdvance func(ctx context.Context, dt time.Duration) error
}

// New creates an engine with a deterministic RNG.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Rand is the engine's seeded RNG. Draw everything random through it —
// and pre-draw at schedule time, not inside actions, when the draw count
// must not depend on runtime state.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Now is the current virtual time.
func (e *Engine) Now() time.Time { return Epoch.Add(e.now) }

// Elapsed is the virtual time since scenario start.
func (e *Engine) Elapsed() time.Duration { return e.now }

// At schedules an event. Scheduling in the past (from inside a running
// action) clamps to the current instant: the event runs next, it is
// never lost.
func (e *Engine) At(at time.Duration, name string, do Action) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	heap.Push(&e.q, &event{at: at, seq: e.seq, name: name, do: do})
}

// Run drains the queue in (time, insertion) order. Actions may schedule
// further events. The first error — from a hook or an action — stops the
// run; the failing event is still recorded.
func (e *Engine) Run(ctx context.Context) error {
	for e.q.Len() > 0 {
		ev := heap.Pop(&e.q).(*event)
		if dt := ev.at - e.now; dt > 0 {
			e.now = ev.at
			if e.OnAdvance != nil {
				if err := e.OnAdvance(ctx, dt); err != nil {
					return fmt.Errorf("scenario: advance to %v: %w", ev.at, err)
				}
			}
		}
		note, err := ev.do(ctx)
		e.timeline = append(e.timeline, Record{At: ev.at, Name: ev.name, Note: note})
		if err != nil {
			return fmt.Errorf("scenario: %q at %v: %w", ev.name, ev.at, err)
		}
	}
	return nil
}

// Timeline is the executed-event log, in execution order.
func (e *Engine) Timeline() []Record { return e.timeline }

// PoissonTimes pre-draws a Poisson arrival process: offsets with
// exponentially distributed inter-arrival gaps of the given mean, within
// [0, horizon). Drawing every arrival up front at schedule time keeps
// the draw sequence — and therefore the whole timeline — independent of
// how actions consume the RNG while the scenario runs.
func PoissonTimes(rng *rand.Rand, mean, horizon time.Duration) []time.Duration {
	var out []time.Duration
	at := time.Duration(float64(mean) * rng.ExpFloat64())
	for at < horizon {
		out = append(out, at)
		at += time.Duration(float64(mean) * rng.ExpFloat64())
	}
	return out
}
