package store

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Record kinds journaled by the control plane.
const (
	// KindTaskSpec carries a task's full submission spec (TaskSpecRecord).
	KindTaskSpec = "task_spec"
	// KindTaskState carries one lifecycle transition (TaskStateRecord).
	KindTaskState = "task_state"
	// KindDevice carries one device health transition (DeviceRecord).
	KindDevice = "device_health"
	// KindEpoch carries one leadership change (EpochRecord): the lease, as
	// persisted in the WAL stream. Written once per term, not per
	// heartbeat — heartbeats are protocol frames, renewals of the same
	// lease, and journaling them would bloat the WAL with derived data.
	KindEpoch = "epoch"
)

// Lifecycle phases the fold names. A task whose last journaled state is
// done or failed is "ended" and is not re-admitted at recovery; a spec
// record starts (or revives) a task as submitted. The strings match
// telemetry's task phase constants.
const (
	stateSubmitted = "submitted"
	stateDone      = "done"
	stateFailed    = "failed"
)

// TaskSpecRecord journals a task's submission: the ID it must be restored
// under and the orchestrator's opaque spec JSON (kind, goal, priority,
// deadline). The store never interprets Spec — only the orchestrator's
// service registry can decode goals.
type TaskSpecRecord struct {
	TaskID int             `json:"task_id"`
	Spec   json.RawMessage `json:"spec"`
}

// TaskStateRecord journals one lifecycle transition.
type TaskStateRecord struct {
	TaskID int    `json:"task_id"`
	State  string `json:"state"`
	// UnixNanos is the orchestrator's virtual-clock time of the transition.
	UnixNanos int64 `json:"t,omitempty"`
}

// DeviceRecord journals one device health transition, so a restarted
// daemon starts from the last known health instead of optimistically
// scheduling onto a device that was dead when it crashed.
type DeviceRecord struct {
	DeviceID string `json:"device_id"`
	State    string `json:"state"` // telemetry.DeviceDegraded/DeviceDead/DeviceRecovered
	Err      string `json:"err,omitempty"`
}

// EpochRecord journals one leadership change. The epoch is a fencing
// token: every replicated append carries the sender's epoch, and a
// receiver rejects epochs below its own, so a paused-and-resumed old
// primary cannot write past a promoted standby.
type EpochRecord struct {
	Epoch  uint64 `json:"epoch"`
	Holder string `json:"holder,omitempty"`
	// TTLNanos is the lease duration the holder announced for this term.
	TTLNanos int64 `json:"ttl,omitempty"`
}

// TaskRecord is one task's recovered state: its spec and the last
// lifecycle phase the journal saw.
type TaskRecord struct {
	ID    int
	Spec  json.RawMessage
	State string
}

// Ended reports whether the task reached a terminal phase and must not be
// re-admitted.
func (t *TaskRecord) Ended() bool {
	return t.State == stateDone || t.State == stateFailed
}

// State is the replayed control-plane state: what a restarted daemon
// re-admits. It is the fold of snapshot + WAL tail.
type State struct {
	// Tasks holds every journaled task by ID, including ended ones until
	// the next compaction.
	Tasks map[int]*TaskRecord
	// Devices holds the last health transition per device ID.
	Devices map[string]*DeviceRecord
	// MaxTaskID is the highest task ID ever journaled. It survives
	// compaction so a restarted daemon never reuses the ID of an ended,
	// compacted-away task.
	MaxTaskID int
	// Epoch is the last journaled leadership term (0: never replicated).
	// It survives snapshots so a rebooted primary resumes fencing from
	// where it left off instead of from 0.
	Epoch uint64
	// Leader is the holder recorded with the last epoch record.
	Leader string
}

// NewState returns an empty state.
func NewState() *State {
	return &State{Tasks: map[int]*TaskRecord{}, Devices: map[string]*DeviceRecord{}}
}

// Live returns the recoverable tasks — journaled, not ended — sorted by
// ID, so restoration re-admits them in original submission order.
func (s *State) Live() []*TaskRecord {
	out := make([]*TaskRecord, 0, len(s.Tasks))
	for _, t := range s.Tasks {
		if !t.Ended() && len(t.Spec) > 0 {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// DeviceHealth returns the journaled device transitions sorted by ID.
func (s *State) DeviceHealth() []*DeviceRecord {
	out := make([]*DeviceRecord, 0, len(s.Devices))
	for _, d := range s.Devices {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DeviceID < out[j].DeviceID })
	return out
}

// Compact drops ended tasks: called before a snapshot so the snapshot
// (and thus the journal's steady-state size) tracks the live task set,
// not the daemon's full history.
func (s *State) Compact() {
	for id, t := range s.Tasks {
		if t.Ended() {
			delete(s.Tasks, id)
		}
	}
}

// payload is one decoded WAL record body: a TaskSpecRecord,
// TaskStateRecord, DeviceRecord or EpochRecord.
type payload interface{ kind() string }

func (TaskSpecRecord) kind() string  { return KindTaskSpec }
func (TaskStateRecord) kind() string { return KindTaskState }
func (DeviceRecord) kind() string    { return KindDevice }
func (EpochRecord) kind() string     { return KindEpoch }

// decodeRecord parses a record's payload into its typed form. Unknown
// kinds decode to nil and are tolerated (forward compatibility): a newer
// daemon's records must not brick an older one reading the dir.
func decodeRecord(rec Record) (payload, error) {
	switch rec.Kind {
	case KindTaskSpec:
		return decodeAs[TaskSpecRecord](rec)
	case KindTaskState:
		return decodeAs[TaskStateRecord](rec)
	case KindDevice:
		return decodeAs[DeviceRecord](rec)
	case KindEpoch:
		return decodeAs[EpochRecord](rec)
	}
	return nil, nil
}

func decodeAs[T payload](rec Record) (payload, error) {
	var m T
	if err := json.Unmarshal(rec.Data, &m); err != nil {
		return nil, fmt.Errorf("%w: %s seq %d: %v", ErrCorrupt, rec.Kind, rec.Seq, err)
	}
	return m, nil
}

// fold applies one decoded record. It is the only code that changes a
// State: replay, the journal's live state and a follower's replica all
// fold the same records the same way. Folding is idempotent, so a
// duplicated record leaves the state unchanged. Transitions for unknown
// task IDs are skipped — they belong to tasks compacted away or to
// services whose goals are not persistable.
func (s *State) fold(p payload) {
	switch m := p.(type) {
	case TaskSpecRecord:
		// A spec record means "this task is live with this spec": it
		// creates the task, revives an ended one as submitted, and keeps
		// the state of a live one, so a re-target or a re-admission never
		// resets a parked task.
		t, ok := s.Tasks[m.TaskID]
		if !ok || t.Ended() {
			t = &TaskRecord{ID: m.TaskID, State: stateSubmitted}
			s.Tasks[m.TaskID] = t
		}
		t.Spec = m.Spec
		s.MaxTaskID = max(s.MaxTaskID, m.TaskID)
	case TaskStateRecord:
		if t, ok := s.Tasks[m.TaskID]; ok {
			t.State = m.State
		}
		s.MaxTaskID = max(s.MaxTaskID, m.TaskID)
	case DeviceRecord:
		s.Devices[m.DeviceID] = &m
	case EpochRecord:
		if m.Epoch > s.Epoch {
			s.Epoch, s.Leader = m.Epoch, m.Holder
		}
	}
}

// apply decodes one WAL record and folds it into the state.
func (s *State) apply(rec Record) error {
	p, err := decodeRecord(rec)
	if err != nil {
		return err
	}
	s.fold(p)
	return nil
}

// Apply folds one record into the state; exported for replay-equivalence
// tests and tools that reconstruct state from raw records.
func (s *State) Apply(rec Record) error { return s.apply(rec) }

// stateFile is the snapshot's stable JSON encoding: sorted slices, not
// maps, so snapshots are byte-deterministic for a given state.
type stateFile struct {
	Tasks     []taskFileRecord `json:"tasks"`
	Devices   []DeviceRecord   `json:"devices"`
	MaxTaskID int              `json:"max_task_id,omitempty"`
	// Epoch/Leader are omitted when zero so snapshots from daemons that
	// never replicated stay byte-identical to the pre-replication format.
	Epoch  uint64 `json:"epoch,omitempty"`
	Leader string `json:"leader,omitempty"`
}

type taskFileRecord struct {
	ID    int             `json:"id"`
	State string          `json:"state"`
	Spec  json.RawMessage `json:"spec,omitempty"`
}

func (s *State) encode() stateFile {
	var f stateFile
	ids := make([]int, 0, len(s.Tasks))
	for id := range s.Tasks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		t := s.Tasks[id]
		f.Tasks = append(f.Tasks, taskFileRecord{ID: t.ID, State: t.State, Spec: t.Spec})
	}
	for _, d := range s.DeviceHealth() {
		f.Devices = append(f.Devices, *d)
	}
	f.MaxTaskID = s.MaxTaskID
	f.Epoch = s.Epoch
	f.Leader = s.Leader
	return f
}

func decodeState(f stateFile) *State {
	s := NewState()
	for _, t := range f.Tasks {
		s.Tasks[t.ID] = &TaskRecord{ID: t.ID, State: t.State, Spec: t.Spec}
	}
	for i := range f.Devices {
		d := f.Devices[i]
		s.Devices[d.DeviceID] = &d
	}
	s.MaxTaskID = f.MaxTaskID
	s.Epoch = f.Epoch
	s.Leader = f.Leader
	return s
}
