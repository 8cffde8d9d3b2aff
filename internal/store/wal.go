// Package store is the control plane's durability layer: an append-only
// JSONL write-ahead log plus a periodic snapshot, from which a restarted
// daemon recovers every task that was submitted and not yet ended.
//
// Durability model (DESIGN.md §10): only *inputs* are persisted — task
// specs, lifecycle transitions, and device health transitions. Plans,
// optimizer state and codebooks are derived and deliberately recomputed
// from scratch at recovery time against the *current* surface and health
// state, which may have changed while the daemon was down.
//
// The WAL is one JSON record per line, each carrying a monotonically
// increasing sequence number and a CRC32 over its payload. Recovery
// tolerates a truncated final record (a crash mid-write leaves an
// unterminated line — even a fully parseable one whose newline was lost —
// which is discarded as never-acknowledged) but refuses corruption
// anywhere before the tail: a newline-terminated record that fails its
// CRC, fails to parse, or breaks the sequence means the file was damaged
// after being written, and silently dropping it could resurrect or lose
// tasks.
//
// One owner, one fold. A Journal is the only writer of a state directory:
// a primary's journal turns lifecycle events into records, a standby's
// (driven by Follower) replays the records a primary ships, and promotion
// makes the standby's journal lead. Every record — replayed, written or
// shipped — reaches a State through the same decode and fold, so the
// journal's state is always the pure replay of its WAL. A task_spec
// record means "this task is live with this spec": it creates the task,
// revives an ended one, and keeps a live one's state.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// ErrCorrupt marks a WAL or snapshot damaged anywhere before the final
// (possibly half-written) record. Recovery refuses to proceed past it.
var ErrCorrupt = errors.New("store: corrupt")

// ErrSeqGap marks a replicated record that skips past the receiver's next
// expected sequence number: records were lost in flight (e.g. the shipper
// overran its buffer) and the follower needs a fresh snapshot to resync.
var ErrSeqGap = errors.New("store: replication sequence gap")

// ErrStaleEpoch marks a replicated append or heartbeat carrying an epoch
// below the receiver's: the sender is a deposed primary (paused, resumed,
// and still writing at its old term) and must be fenced, not obeyed.
var ErrStaleEpoch = errors.New("store: stale epoch")

// WAL and snapshot file names inside the state directory.
const (
	walName      = "wal.jsonl"
	snapshotName = "snapshot.json"
)

// Record is one durable WAL entry.
type Record struct {
	// Seq is the record's monotonic sequence number (previous record + 1).
	Seq uint64 `json:"seq"`
	// Kind discriminates Data (KindTaskSpec, KindTaskState, KindDevice).
	Kind string `json:"kind"`
	// Data is the kind-specific payload, preserved byte-exactly.
	Data json.RawMessage `json:"data"`
	// CRC is crc32.ChecksumIEEE over "<seq>|<kind>|<data>". It is the last
	// field on the line, so a partial flush cannot produce a record that
	// both parses and checksums.
	CRC uint32 `json:"crc"`
}

// checksum computes the record CRC over the sequence, kind and payload.
func checksum(seq uint64, kind string, data []byte) uint32 {
	h := crc32.NewIEEE()
	var buf [20]byte
	h.Write(strconv.AppendUint(buf[:0], seq, 10))
	h.Write([]byte{'|'})
	h.Write([]byte(kind))
	h.Write([]byte{'|'})
	h.Write(data)
	return h.Sum32()
}

// syncFile fsyncs a file. Every fsync the store makes goes through it, so
// tests can slow it down, count it or make it fail.
var syncFile = (*os.File).Sync

// Store is an open state directory: the append handle on the WAL plus the
// recovery bookkeeping. Methods are not safe for concurrent use; the
// Journal serializes all writers.
//
// Writes are group-committed: a record written with stage or AppendRecord
// sits in the write buffer until Sync flushes and fsyncs it together with
// every record written before it. A record is acknowledged — reported
// durable, shipped to a replica — only after the Sync that covers it
// returns. Append is the one-record form that syncs before returning.
type Store struct {
	dir      string
	f        *os.File
	w        *bufio.Writer
	seq      uint64    // last sequence number written or recovered
	walBytes int64     // bytes of WAL records written since the last compaction
	snapTime time.Time // when the current snapshot was written (zero: none)
}

// Open opens (creating if needed) the state directory, recovers the
// snapshot and WAL tail into a State, truncates any half-written final
// record, and returns the store positioned to append after the last good
// record. A corrupt snapshot or a corrupt non-tail WAL record returns
// ErrCorrupt and leaves the files untouched for forensics.
func Open(dir string) (*Store, *State, error) {
	if dir == "" {
		return nil, nil, errors.New("store: empty state directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	st, snapSeq, err := readSnapshot(filepath.Join(dir, snapshotName))
	if err != nil {
		return nil, nil, err
	}
	recs, lastSeq, goodLen, err := readWAL(filepath.Join(dir, walName), snapSeq)
	if err != nil {
		return nil, nil, err
	}
	for _, r := range recs {
		if err := st.apply(r); err != nil {
			return nil, nil, err
		}
	}
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	// Make the WAL's directory entry durable: a crash right after boot must
	// not lose the file (and with it, every record fsynced into it).
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, nil, err
	}
	// Drop the truncated tail (crash mid-write) before appending: the next
	// record must start at a line boundary.
	if err := f.Truncate(goodLen); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(goodLen, 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	seq := lastSeq
	if snapSeq > seq {
		seq = snapSeq
	}
	s := &Store{dir: dir, f: f, w: bufio.NewWriter(f), seq: seq, walBytes: goodLen}
	if fi, err := os.Stat(filepath.Join(dir, snapshotName)); err == nil {
		s.snapTime = fi.ModTime()
	}
	return s, st, nil
}

// Seq returns the last sequence number written or recovered.
func (s *Store) Seq() uint64 { return s.seq }

// Append marshals data and writes one WAL record, flushing to the OS and
// fsyncing before returning its sequence number: a record handed to
// Append survives a machine crash. It pays one fsync per record; the
// journal writes with stage and pays one Sync per batch instead.
func (s *Store) Append(kind string, data any) (uint64, error) {
	rec, err := s.stage(kind, data)
	if err != nil {
		return 0, err
	}
	if err := s.Sync(); err != nil {
		return 0, err
	}
	return rec.Seq, nil
}

// stage marshals data into the next WAL record and writes it to the
// buffer, returning the complete record — sequence, CRC and marshaled
// payload — for callers that forward it verbatim, such as the replication
// shipper. The record is durable only after the next Sync.
func (s *Store) stage(kind string, data any) (Record, error) {
	if s.f == nil {
		return Record{}, errors.New("store: closed")
	}
	raw, err := json.Marshal(data)
	if err != nil {
		return Record{}, err
	}
	rec := Record{Seq: s.seq + 1, Kind: kind, Data: raw}
	rec.CRC = checksum(rec.Seq, rec.Kind, rec.Data)
	if err := s.writeLine(rec); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// AppendRecord writes one already-sequenced record verbatim — the
// follower side of WAL shipping. The record's CRC is re-verified and its
// sequence must extend the local chain: a duplicate (seq ≤ current, a
// re-send after reconnect) is skipped without error, a gap is ErrSeqGap.
// Writing verbatim keeps the follower's WAL byte-identical to the
// primary's, so recovery and promotion replay the exact same records.
// Like stage, it only buffers the record: the caller Syncs once per
// shipped batch before acknowledging it.
func (s *Store) AppendRecord(rec Record) error {
	if s.f == nil {
		return errors.New("store: closed")
	}
	if got := checksum(rec.Seq, rec.Kind, rec.Data); got != rec.CRC {
		return fmt.Errorf("%w: replicated record seq %d: crc mismatch (stored %08x, computed %08x)", ErrCorrupt, rec.Seq, rec.CRC, got)
	}
	if rec.Seq <= s.seq {
		return nil // idempotent re-send
	}
	if rec.Seq != s.seq+1 {
		return fmt.Errorf("%w: got seq %d, want %d", ErrSeqGap, rec.Seq, s.seq+1)
	}
	return s.writeLine(rec)
}

// writeLine marshals one record line into the write buffer, advancing seq
// and the size accounting. The record must already carry seq s.seq+1 and
// its CRC.
func (s *Store) writeLine(rec Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if _, err := s.w.Write(line); err != nil {
		return err
	}
	if err := s.w.WriteByte('\n'); err != nil {
		return err
	}
	s.seq = rec.Seq
	s.walBytes += int64(len(line)) + 1
	return nil
}

// WALSize reports the bytes of WAL records written since the last
// compaction, all on disk once Sync returns — the growth, one input to
// snapshot cadence and promotion-readiness decisions.
func (s *Store) WALSize() int64 { return s.walBytes }

// SnapshotTime reports when the current snapshot was written (recovered
// from the file's mtime after a restart); zero means no snapshot exists.
func (s *Store) SnapshotTime() time.Time { return s.snapTime }

// Sync flushes buffered records and fsyncs the WAL: the group commit that
// makes every record written so far durable.
func (s *Store) Sync() error {
	if s.f == nil {
		return nil
	}
	if err := s.w.Flush(); err != nil {
		return err
	}
	return syncFile(s.f)
}

// Close flushes, fsyncs, and releases the WAL handle.
func (s *Store) Close() error {
	if s.f == nil {
		return nil
	}
	err := s.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}

// Snapshot atomically persists the given state at the current sequence
// number and compacts the WAL: the snapshot is written to a temp file,
// fsynced, renamed over snapshot.json, the rename made durable with a
// directory fsync, and only then is the WAL reset to empty. The ordering
// is load-bearing: truncating first (or truncating after a rename that is
// not yet durable) could leave the old snapshot with an empty WAL, losing
// every record since the previous snapshot. With the directory fsync in
// between, a crash at any point merely leaves WAL records the snapshot
// already covers — replay skips them by sequence.
func (s *Store) Snapshot(st *State) error {
	data, err := EncodeSnapshot(s.seq, st)
	if err != nil {
		return err
	}
	return s.writeSnapshot(data, s.seq)
}

// writeSnapshot persists pre-encoded snapshot bytes with the atomic
// temp+fsync+rename+dir-fsync dance, then compacts the WAL and moves the
// store's sequence to the snapshot's — for a snapshot a replication peer
// shipped, the point AppendRecord continues the chain from.
func (s *Store) writeSnapshot(data []byte, seq uint64) error {
	if s.f == nil {
		return errors.New("store: closed")
	}
	tmp := filepath.Join(s.dir, snapshotName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := syncFile(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapshotName)); err != nil {
		return err
	}
	// The rename must be durable before the WAL shrinks: on power loss a
	// truncate can reach disk while an un-fsynced rename does not.
	if err := syncDir(s.dir); err != nil {
		return err
	}
	// Compaction: every record ≤ the snapshot seq is now covered by it.
	if err := s.f.Truncate(0); err != nil {
		return err
	}
	if _, err := s.f.Seek(0, 0); err != nil {
		return err
	}
	s.w.Reset(s.f)
	if err := syncFile(s.f); err != nil {
		return err
	}
	// The snapshot is now authoritative: the WAL is empty and the chain
	// continues from its sequence (a no-op for local Snapshot, the resync
	// point for a shipped one).
	s.seq = seq
	s.walBytes = 0
	s.snapTime = time.Now()
	return nil
}

// EncodeSnapshot renders a state at a sequence number into the snapshot
// file format — the bytes Snapshot persists and the replication channel
// ships. The encoding is byte-deterministic for a given state.
func EncodeSnapshot(seq uint64, st *State) ([]byte, error) {
	snap := snapshotFile{Seq: seq, State: st.encode()}
	raw, err := json.Marshal(snap.State)
	if err != nil {
		return nil, err
	}
	snap.CRC = checksum(seq, "snapshot", raw)
	return json.Marshal(snap)
}

// DecodeSnapshot parses and CRC-verifies snapshot bytes, returning the
// state and the WAL sequence it covers through.
func DecodeSnapshot(data []byte) (*State, uint64, error) {
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, 0, fmt.Errorf("%w: snapshot: %v", ErrCorrupt, err)
	}
	raw, err := json.Marshal(snap.State)
	if err != nil {
		return nil, 0, err
	}
	if got := checksum(snap.Seq, "snapshot", raw); got != snap.CRC {
		return nil, 0, fmt.Errorf("%w: snapshot crc mismatch (stored %08x, computed %08x)", ErrCorrupt, snap.CRC, got)
	}
	return decodeState(snap.State), snap.Seq, nil
}

// syncDir fsyncs a directory so the metadata operations inside it (file
// creation, rename) are durable, not just the file contents.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = syncFile(d)
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// snapshotFile is the on-disk snapshot envelope.
type snapshotFile struct {
	// Seq is the WAL sequence the snapshot covers through.
	Seq uint64 `json:"seq"`
	// State is the encoded task/device state.
	State stateFile `json:"state"`
	// CRC covers "<seq>|snapshot|<state-json>".
	CRC uint32 `json:"crc"`
}

// readSnapshot loads and verifies snapshot.json; a missing file yields an
// empty state at sequence 0. Unlike the WAL tail, a snapshot is written
// atomically (temp + rename), so any damage is corruption, never an
// expected crash artifact.
func readSnapshot(path string) (*State, uint64, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return NewState(), 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	return DecodeSnapshot(data)
}

// readWAL scans the WAL, returning the records with sequence > afterSeq,
// the last good sequence number, and the byte length of the good prefix.
// Any unterminated final line is treated as a crash-truncated tail and
// excluded — even one that parses and checksums. A record is acknowledged
// only after the Sync that covers its trailing newline, so a missing
// newline means the record was never reported durable, and accepting it
// would leave the file mid-line: the next record would be glued onto the
// same line and poison the *following* recovery. Any damage on a
// newline-terminated line is ErrCorrupt, tagged with the offending
// sequence number where one could be read.
//
// The WAL may legitimately begin before afterSeq: a crash between the
// snapshot rename and the WAL truncate leaves records the snapshot
// already covers, which replay skips by sequence. A first record *after*
// afterSeq+1, though, means records were lost — corruption.
func readWAL(path string, afterSeq uint64) (recs []Record, lastSeq uint64, goodLen int64, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, afterSeq, 0, nil
	}
	if err != nil {
		return nil, 0, 0, err
	}
	return parseWAL(data, afterSeq)
}

// parseWAL is readWAL over the file's bytes.
func parseWAL(data []byte, afterSeq uint64) (recs []Record, lastSeq uint64, goodLen int64, err error) {
	lastSeq = afterSeq
	var prev uint64
	first := true
	var off int64
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			// Crash mid-write: the final record's newline never made it to
			// disk, so the record was never acknowledged. Recover to the
			// last complete record and truncate the unterminated tail.
			return recs, lastSeq, off, nil
		}
		line := data[:nl]
		rec, verr := verifyLine(line, prev, first)
		if verr == nil && first && rec.Seq > afterSeq+1 {
			verr = fmt.Errorf("%w: wal starts at seq %d but snapshot covers only through %d", ErrCorrupt, rec.Seq, afterSeq)
		}
		if verr != nil {
			return nil, 0, 0, verr
		}
		first = false
		prev = rec.Seq
		if rec.Seq > afterSeq {
			recs = append(recs, rec)
			lastSeq = rec.Seq
		}
		off += int64(nl) + 1
		data = data[nl+1:]
	}
	return recs, lastSeq, off, nil
}

// verifyLine parses and validates one WAL line against the previous
// record's sequence number (the first line of a file anchors the chain).
func verifyLine(line []byte, prevSeq uint64, first bool) (Record, error) {
	var rec Record
	if err := json.Unmarshal(line, &rec); err != nil {
		return Record{}, fmt.Errorf("%w: wal record after seq %d: %v", ErrCorrupt, prevSeq, err)
	}
	if got := checksum(rec.Seq, rec.Kind, rec.Data); got != rec.CRC {
		return Record{}, fmt.Errorf("%w: wal record seq %d: crc mismatch (stored %08x, computed %08x)", ErrCorrupt, rec.Seq, rec.CRC, got)
	}
	if !first && rec.Seq != prevSeq+1 {
		return Record{}, fmt.Errorf("%w: wal record seq %d breaks sequence (previous %d)", ErrCorrupt, rec.Seq, prevSeq)
	}
	return rec, nil
}
