package store

import (
	"errors"
	"sync"
	"time"
)

// ErrReleased marks a replication message from a newer term arriving
// after the follower promoted (its journal now leads) or closed: the
// follower cannot apply it, but the sender is not stale either.
var ErrReleased = errors.New("store: follower released")

// ErrLeaseLive aborts a promotion because the lease was renewed between
// the expiry observation and the durable epoch bump: the primary checked
// in at the last instant, and taking over anyway would run two leaders
// until the next fencing round trip. The caller keeps following.
var ErrLeaseLive = errors.New("store: lease renewed, promotion aborted")

// Follower is the standby side of the replicated pair: it replays the
// primary's snapshot and WAL tail into a Journal of its own, tracks the
// primary's lease, and promotes — leading that same journal at a new
// epoch, which fences the old primary — when the lease expires. It holds
// only epoch fencing, the lease, the holder and lag; the journal holds
// the state.
//
// All methods are safe for concurrent use. Time is read through an
// injectable clock so lease expiry is testable and the failover
// experiment stays deterministic.
type Follower struct {
	mu sync.Mutex
	// j is the replica: every shipped snapshot and record lands in it, and
	// a promoted daemon journals into it as its primary journal.
	j *Journal
	// epoch is the highest leadership term seen; messages below it are
	// rejected with ErrStaleEpoch.
	epoch uint64
	// primarySeq is the primary's last reported WAL sequence.
	primarySeq uint64
	holder     string
	leaseTTL   time.Duration
	lastBeat   time.Time // zero: no heartbeat seen yet
	leaseEnd   time.Time // zero: lease tracking not started
	promoted   bool
	closed     bool
	now        func() time.Time
}

// OpenFollower opens (or creates) a follower state directory, recovering
// whatever snapshot and WAL tail a previous run left, positioned to
// resume from its last applied sequence.
func OpenFollower(dir string) (*Follower, error) {
	j, err := OpenJournal(dir)
	if err != nil {
		return nil, err
	}
	return &Follower{j: j, epoch: j.Epoch(), now: time.Now}, nil
}

// Journal returns the replica journal. Before promotion only the follower
// writes it; after, it is the promoted daemon's journal.
func (f *Follower) Journal() *Journal { return f.j }

// SetClock overrides the follower's time source (tests, deterministic
// experiments).
func (f *Follower) SetClock(now func() time.Time) {
	f.mu.Lock()
	f.now = now
	f.mu.Unlock()
}

// StartLease arms lease tracking before the first heartbeat: if no
// primary checks in within ttl of now, the lease counts as expired. A
// follower that never armed the lease never promotes — it would otherwise
// take over the moment it booted, before the primary ever connected.
func (f *Follower) StartLease(ttl time.Duration) {
	f.mu.Lock()
	f.leaseTTL = ttl
	f.leaseEnd = f.now().Add(ttl)
	f.mu.Unlock()
}

// checkEpochLocked fences stale senders and adopts newer terms. Once
// this follower has promoted, it IS the leader at f.epoch, so any sender
// at or below that term is a deposed primary and must hear "stale
// epoch" — the signal that makes it fence itself. The <= matters: a dead
// primary that reboots recovers its old term N from its own journal and
// mints N+1 with BecomeLeader, colliding exactly with the term the
// promoted follower took over at; fencing only < would let that
// doppelgänger lead forever. Traffic from a genuinely newer term reaches
// a promoted (or closed) follower as ErrReleased: it cannot apply it,
// but the sender is not stale.
func (f *Follower) checkEpochLocked(epoch uint64) error {
	if f.promoted || f.closed {
		if epoch <= f.epoch {
			return ErrStaleEpoch
		}
		return ErrReleased
	}
	if epoch < f.epoch {
		return ErrStaleEpoch
	}
	f.epoch = epoch
	return nil
}

// renewLocked treats any accepted leader traffic as proof of life.
func (f *Follower) renewLocked() {
	if f.leaseTTL > 0 {
		f.leaseEnd = f.now().Add(f.leaseTTL)
	}
}

// InstallSnapshot verifies and persists a snapshot from the primary,
// replacing the replica's state wholesale — the attach-time bootstrap
// and the resync path after a shipping gap.
func (f *Follower) InstallSnapshot(epoch uint64, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkEpochLocked(epoch); err != nil {
		return err
	}
	snapEpoch, err := f.j.install(data)
	if err != nil {
		return err
	}
	f.epoch = max(f.epoch, snapEpoch)
	f.renewLocked()
	return nil
}

// AppendBatch applies one shipped record batch: each record is CRC
// verified, written verbatim to the replica's WAL, and folded into its
// state. Records at or below the applied sequence are duplicates from a
// re-send and are skipped; a gap returns ErrSeqGap so the primary falls
// back to a snapshot. Returns the new applied sequence — the ack.
func (f *Follower) AppendBatch(epoch uint64, recs []Record) (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkEpochLocked(epoch); err != nil {
		return f.j.Seq(), err
	}
	if err := f.j.replay(recs); err != nil {
		return f.j.Seq(), err
	}
	f.renewLocked()
	return f.j.Seq(), nil
}

// Heartbeat records a lease renewal from the primary: holder, ttl, and
// the primary's WAL sequence (for lag accounting).
func (f *Follower) Heartbeat(epoch uint64, holder string, ttl time.Duration, primarySeq uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkEpochLocked(epoch); err != nil {
		return err
	}
	f.holder = holder
	if ttl > 0 {
		f.leaseTTL = ttl
	}
	f.primarySeq = max(f.primarySeq, primarySeq)
	f.lastBeat = f.now()
	f.renewLocked()
	return nil
}

// LeaseExpired reports whether the primary's lease has lapsed. Always
// false until StartLease or a first heartbeat arms the lease.
func (f *Follower) LeaseExpired() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return !f.closed && !f.promoted && !f.leaseEnd.IsZero() && f.now().After(f.leaseEnd)
}

// Promote durably takes over leadership: the replica journal leads at one
// past the highest epoch this follower has seen, fencing every message
// the old primary may still send (they carry an epoch at or below it and
// are now stale). The caller re-admits the journal's live tasks exactly
// as boot recovery does and journals into it from then on. A lease
// renewed since the caller observed expiry aborts with ErrLeaseLive —
// the epoch bump and the renewal serialize on f.mu, so either the
// primary's heartbeat lands first and promotion backs off, or promotion
// commits first and the heartbeat is fenced; two live leaders can't
// both come out of this window. Promoting again returns the same epoch.
func (f *Follower) Promote(holder string) (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, ErrReleased
	}
	if f.promoted {
		return f.epoch, nil
	}
	if f.leaseTTL > 0 && !f.leaseEnd.IsZero() && !f.now().After(f.leaseEnd) {
		return 0, ErrLeaseLive
	}
	epoch, err := f.j.lead(f.epoch, holder, f.leaseTTL)
	if err != nil {
		return 0, err
	}
	f.epoch, f.holder, f.promoted = epoch, holder, true
	return epoch, nil
}

// Close stops the follower and closes its journal: later replication
// traffic is fenced as after a promotion.
func (f *Follower) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	return f.j.Close()
}

// Epoch reports the highest leadership term seen.
func (f *Follower) Epoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// Applied reports the last durably applied record sequence — the ack.
func (f *Follower) Applied() uint64 { return f.j.Seq() }

// Lag reports how many records the follower trails the primary by, per
// the last heartbeat's sequence.
func (f *Follower) Lag() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if applied := f.j.Seq(); f.primarySeq > applied {
		return f.primarySeq - applied
	}
	return 0
}

// LeaseAge reports the time since the last heartbeat, or -1 if none has
// arrived yet.
func (f *Follower) LeaseAge() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.lastBeat.IsZero() {
		return -1
	}
	return f.now().Sub(f.lastBeat)
}

// Holder reports the leader name from the last heartbeat.
func (f *Follower) Holder() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.holder
}

// Promoted reports whether this follower has taken over leadership.
func (f *Follower) Promoted() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.promoted
}
