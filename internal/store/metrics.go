package store

import "surfos/internal/metrics"

// RegisterMetrics exposes the journal's durability state: the last
// appended WAL sequence, the group commits that made records durable
// (seq over syncs is the records written per fsync), the compaction
// backlog since the previous snapshot, whether journaling has failed, WAL
// size, snapshot age, and the journaled leadership epoch. A standby's
// journal is its replica, so the same families track replication before a
// promotion and journaling after it. Journal lag — events published but not yet consumed — is the
// journal subscriber's bus backlog and is exported by the bus metrics,
// labelled with the journal's subscription name.
func (j *Journal) RegisterMetrics(r *metrics.Registry) {
	r.CounterFunc("surfos_journal_seq", "Last appended WAL record sequence.",
		func() float64 { return float64(j.Seq()) })
	r.CounterFunc("surfos_journal_syncs_total", "WAL fsyncs that made a batch of records durable.",
		func() float64 { return float64(j.Syncs()) })
	r.GaugeFunc("surfos_journal_since_snapshot", "WAL records appended since the last snapshot.",
		func() float64 { return float64(j.SinceSnapshot()) })
	r.GaugeFunc("surfos_journal_failed", "1 when journaling has stopped on a write error.",
		func() float64 {
			if j.Err() != nil {
				return 1
			}
			return 0
		})
	r.GaugeFunc("surfos_wal_size_bytes", "Bytes of acknowledged WAL records on disk since the last compaction.",
		func() float64 { return float64(j.WALSize()) })
	r.GaugeFunc("surfos_snapshot_age_seconds", "Seconds since the last snapshot was persisted (-1: none yet).",
		func() float64 {
			if age := j.SnapshotAge(); age >= 0 {
				return age.Seconds()
			}
			return -1
		})
	r.GaugeFunc("surfos_journal_epoch", "Leadership term recorded in the journal (0: never replicated).",
		func() float64 { return float64(j.Epoch()) })
}
