package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// FuzzWAL feeds arbitrary bytes to the WAL reader: it must return records
// or ErrCorrupt, never panic, and what it accepts must be a chain of
// complete lines that folds into a State without a panic.
func FuzzWAL(f *testing.F) {
	s, _, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	var wal bytes.Buffer
	for _, p := range []payload{
		TaskSpecRecord{TaskID: 1, Spec: specJSON(1)},
		TaskStateRecord{TaskID: 1, State: "running", UnixNanos: 7},
		DeviceRecord{DeviceID: "east", State: "device_dead", Err: "heartbeat lost"},
		EpochRecord{Epoch: 2, Holder: "primary", TTLNanos: 3e9},
	} {
		rec, err := s.stage(p.kind(), p)
		if err != nil {
			f.Fatal(err)
		}
		line, _ := json.Marshal(rec)
		wal.Write(append(line, '\n'))
	}
	s.Close()
	f.Add(wal.Bytes(), uint64(0))
	f.Add(wal.Bytes(), uint64(2))
	f.Add(wal.Bytes()[:wal.Len()-5], uint64(0))
	f.Add([]byte("{\"seq\":1}\n"), uint64(0))

	f.Fuzz(func(t *testing.T, data []byte, afterSeq uint64) {
		recs, lastSeq, goodLen, err := parseWAL(data, afterSeq)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v is not ErrCorrupt", err)
			}
			return
		}
		if goodLen < 0 || goodLen > int64(len(data)) || goodLen > 0 && data[goodLen-1] != '\n' {
			t.Fatalf("good prefix %d of %d bytes does not end a line", goodLen, len(data))
		}
		st := NewState()
		for i, rec := range recs {
			if rec.Seq <= afterSeq || i > 0 && rec.Seq != recs[i-1].Seq+1 {
				t.Fatalf("record %d has seq %d after %d", i, rec.Seq, afterSeq)
			}
			if err := st.apply(rec); err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("fold error %v is not ErrCorrupt", err)
			}
		}
		if len(recs) > 0 && lastSeq != recs[len(recs)-1].Seq {
			t.Fatalf("last seq %d, last record %d", lastSeq, recs[len(recs)-1].Seq)
		}
	})
}

// FuzzDecodeSnapshot feeds arbitrary bytes to the snapshot decoder: it
// must return a state or ErrCorrupt, never panic, and a state it accepts
// must re-encode to bytes that decode to the same state.
func FuzzDecodeSnapshot(f *testing.F) {
	st := NewState()
	for _, rec := range []Record{
		{Seq: 1, Kind: KindTaskSpec, Data: json.RawMessage(`{"task_id":1,"spec":{"id":1}}`)},
		{Seq: 2, Kind: KindTaskState, Data: json.RawMessage(`{"task_id":1,"state":"idle"}`)},
		{Seq: 3, Kind: KindDevice, Data: json.RawMessage(`{"device_id":"east","state":"device_dead"}`)},
		{Seq: 4, Kind: KindEpoch, Data: json.RawMessage(`{"epoch":3,"holder":"primary"}`)},
	} {
		if err := st.apply(rec); err != nil {
			f.Fatal(err)
		}
	}
	snap, err := EncodeSnapshot(4, st)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	f.Add([]byte(`{"seq":0,"state":{"tasks":null,"devices":null},"crc":0}`))
	f.Add([]byte(`{`))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, seq, err := DecodeSnapshot(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v is not ErrCorrupt", err)
			}
			return
		}
		enc, err := EncodeSnapshot(seq, st)
		if err != nil {
			t.Fatal(err)
		}
		again, seq2, err := DecodeSnapshot(enc)
		if err != nil || seq2 != seq {
			t.Fatalf("re-encoded snapshot: seq %d, %v", seq2, err)
		}
		if enc2, _ := EncodeSnapshot(seq2, again); !bytes.Equal(enc, enc2) {
			t.Fatalf("snapshot round trip unstable:\n%s\n%s", enc, enc2)
		}
	})
}
