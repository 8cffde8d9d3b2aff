package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"surfos/internal/ctrlproto"
	"surfos/internal/telemetry"
)

// opTimeout bounds every wait of one op: an RPC reply, or the lifecycle
// events the op must cause. Past it the op counts as failed.
const opTimeout = 10 * time.Second

// arrival is one lifecycle event as it reached the watcher, stamped by the
// goroutine that received it.
type arrival struct {
	stream int
	ev     ctrlproto.TaskEventMsg
	at     time.Time
}

// want names one event an op must cause: a task reaching a state, or (with
// task 0) a device health transition or re-plan marker.
type want struct {
	task   uint32
	device string
	state  string
}

func (w want) matches(ev ctrlproto.TaskEventMsg) bool {
	return ev.State == w.state && ev.TaskID == w.task && ev.DeviceID == w.device
}

// watcher is the second connection: it carries n multiplexed event streams
// and funnels every event, timestamped on arrival, to the driver goroutine.
// All accounting happens on the driver side, so it needs no locks.
type watcher struct {
	cl      *ctrlproto.Client
	streams []*ctrlproto.Stream
	ch      chan arrival
	wg      sync.WaitGroup

	// Driver-side accounting, per stream.
	count   []int // events consumed
	durable []int // events the journal turns into one WAL record each
	failed  int   // "failed" task events seen on any stream
	// linkSNR collects the metric of every running event stream 0 sees for
	// a link task in domain 0, the AP's own room — the plan-quality guard.
	// (Behind the strip's concrete dividers SNR is some -50 dB whatever the
	// plan; mixing the two populations would put the median between them.)
	linkSNR []float64
	// snrDone stops the collection: strip-churn guards its initial plan
	// only, because where its seeded moves take the endpoints shifts the
	// median by ±1.5 dB from seed to seed.
	snrDone bool

	got []bool // scratch for await: streams x wants
}

// openWatcher dials addr and opens n task streams. filter scopes them to a
// tenant ("" = every event, device health included).
func openWatcher(ctx context.Context, addr string, n int, filter string) (*watcher, error) {
	cl, err := ctrlproto.Dial(addr)
	if err != nil {
		return nil, err
	}
	cl.Timeout = opTimeout
	w := &watcher{
		cl: cl,
		// Sized to hold the largest burst one op or set-up step causes on
		// every stream (a 64-task reconcile is 128 events; 256 streams see
		// 3 per op) while the driver is still waiting for the RPC reply: a
		// full funnel would back up into the client's per-stream buffers,
		// which drop.
		ch:      make(chan arrival, 1<<14),
		count:   make([]int, n),
		durable: make([]int, n),
	}
	for i := 0; i < n; i++ {
		s, err := cl.OpenStream(ctx, ctrlproto.StreamTasks, filter)
		if err != nil {
			w.close()
			return nil, err
		}
		w.streams = append(w.streams, s)
		w.wg.Add(1)
		go func(i int, s *ctrlproto.Stream) {
			defer w.wg.Done()
			for ev := range s.C {
				w.ch <- arrival{stream: i, ev: ev, at: time.Now()}
			}
		}(i, s)
	}
	return w, nil
}

// close drops the connection and waits for the stream goroutines.
func (w *watcher) close() {
	w.cl.Close()
	// Keep the funnel moving so a goroutine blocked on it can see its
	// stream close.
	done := make(chan struct{})
	go func() {
		w.wg.Wait()
		close(done)
	}()
	for {
		select {
		case <-w.ch:
		case <-done:
			return
		}
	}
}

// journaled reports whether store.Journal.Consume writes a WAL record for
// this event, given that every service in the workloads has a goal codec.
func journaled(ev ctrlproto.TaskEventMsg) bool {
	switch ev.State {
	case telemetry.DeviceDegraded, telemetry.DeviceDead, telemetry.DeviceRecovered:
		return true
	case telemetry.Replanned:
		return false
	}
	return ev.TaskID > 0
}

// note does the per-event accounting.
func (w *watcher) note(a arrival) {
	w.count[a.stream]++
	if journaled(a.ev) {
		w.durable[a.stream]++
	}
	if a.ev.State == telemetry.TaskFailed {
		w.failed++
	}
	if !w.snrDone && a.stream == 0 && a.ev.State == telemetry.TaskRunning && a.ev.Kind == "link" && a.ev.Domain == 0 {
		w.linkSNR = append(w.linkSNR, a.ev.Metric)
	}
}

// await consumes events until every stream has delivered every wanted
// event, and returns when each want was satisfied on its last stream (so
// at[i] closes the loop for wants[i]). Events outside wants are accounted
// and skipped.
func (w *watcher) await(wants []want) ([]time.Time, error) {
	n := len(w.streams)
	if cap(w.got) < n*len(wants) {
		w.got = make([]bool, n*len(wants))
	}
	got := w.got[:n*len(wants)]
	for i := range got {
		got[i] = false
	}
	at := make([]time.Time, len(wants))
	left := len(got)
	timer := time.NewTimer(opTimeout)
	defer timer.Stop()
	for left > 0 {
		select {
		case a := <-w.ch:
			w.note(a)
			for i, wt := range wants {
				if !got[a.stream*len(wants)+i] && wt.matches(a.ev) {
					got[a.stream*len(wants)+i] = true
					left--
					if a.at.After(at[i]) {
						at[i] = a.at
					}
					break
				}
			}
		case <-timer.C:
			return at, fmt.Errorf("%d of %d awaited event(s) missing after %s (first wants %+v)", left, len(got), opTimeout, wants[0])
		}
	}
	return at, nil
}

// last returns the latest of a set of arrival times.
func last(at []time.Time) time.Time {
	var out time.Time
	for _, t := range at {
		if t.After(out) {
			out = t
		}
	}
	return out
}
