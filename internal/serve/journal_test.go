package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"os"
	"reflect"
	"testing"
)

// journalLines renders records exactly as Journal.Append writes them.
func journalLines(tb testing.TB, recs ...Record) []byte {
	tb.Helper()
	var buf bytes.Buffer
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			tb.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestJournalReplayDropsNegativePoint: a point record with a negative
// index is dropped like a gap, and the records after it still apply.
func TestJournalReplayDropsNegativePoint(t *testing.T) {
	jl, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := testJobRecord(t, "job-1", EngineSlotted, false)
	if err := jl.Create(rec); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(jl.logPath(rec.ID), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.WriteString(`{"t":"point","i":-1,"doc":{}}` + "\n" + `{"t":"point","doc":{"index":0}}` + "\n")
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	st, err := jl.Replay(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Points) != 1 || string(st.Points[0]) != `{"index":0}` {
		t.Fatalf("points %q, want the one valid point", st.Points)
	}
}

// FuzzJournalReplay: replaying any log never panics, leaves no hole in
// Points, and is deterministic (the same bytes give the same state).
func FuzzJournalReplay(f *testing.F) {
	running := Record{T: recRunning, At: 1, Pid: 42}
	point0 := Record{T: recPoint, Point: 0, Doc: json.RawMessage(`{"index":0}`)}
	point1 := Record{T: recPoint, Point: 1, Doc: json.RawMessage(`{"index":1}`)}
	queued := Record{T: recQueued, At: 7}
	clean := journalLines(f, queued, running, point0)
	f.Add(clean)
	f.Add(append(append([]byte(nil), clean...), `{"t":"point","i":1,"doc":{"ind`...))
	f.Add(journalLines(f, queued, running, point0, point1, Record{T: recDone, At: 9}))
	f.Add(journalLines(f, queued, running, point0, Record{T: recFailed, Error: "boom"}))
	f.Add([]byte(`{"t":"point","i":-1,"doc":{}}` + "\n"))
	f.Add([]byte(`{"t":"point","i":3,"doc":{}}` + "\n" + `{"t":"point"}` + "\n"))
	f.Fuzz(func(t *testing.T, log []byte) {
		replay := func() *JobState {
			st := &JobState{Status: StatusQueued}
			replayLog(st, log)
			return st
		}
		st := replay()
		for i, doc := range st.Points {
			if len(doc) == 0 {
				t.Fatalf("Points[%d] is a hole", i)
			}
		}
		if again := replay(); !reflect.DeepEqual(st, again) {
			t.Fatalf("replay not deterministic: %+v vs %+v", st, again)
		}
	})
}

// checkpointWithCRC replaces data's CRC trailer with the right one, so a
// mutated body reaches the parser.
func checkpointWithCRC(data []byte) []byte {
	if len(data) < 4 {
		return data
	}
	out := append([]byte(nil), data...)
	body := out[:len(out)-4]
	binary.LittleEndian.PutUint32(out[len(body):], crc32.ChecksumIEEE(body))
	return out
}

// writtenCheckpoint returns the bytes WriteCheckpoint stores for snaps.
func writtenCheckpoint(tb testing.TB, jl *Journal, point int, snaps [][]byte) []byte {
	tb.Helper()
	if err := jl.WriteCheckpoint("job-1", point, snaps); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(jl.ckptPath("job-1"))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func checkpointJournal(tb testing.TB, dir string) *Journal {
	tb.Helper()
	jl, err := OpenJournal(dir)
	if err != nil {
		tb.Fatal(err)
	}
	if err := os.MkdirAll(jl.JobDir("job-1"), 0o755); err != nil {
		tb.Fatal(err)
	}
	return jl
}

// TestCheckpointRejectsOversizedCount: a CRC-valid checkpoint whose
// snapshot count exceeds what its bytes could hold is refused before any
// allocation sized by that count; a genuine one still round-trips.
func TestCheckpointRejectsOversizedCount(t *testing.T) {
	jl := checkpointJournal(t, t.TempDir())
	snaps := [][]byte{[]byte("alpha"), []byte("be")}
	data := writtenCheckpoint(t, jl, 2, snaps)
	point, got, err := jl.ReadCheckpoint("job-1")
	if err != nil || point != 2 || !reflect.DeepEqual(got, snaps) {
		t.Fatalf("round trip: point %d snaps %q err %v", point, got, err)
	}
	hostile := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(hostile[len(ckptMagic)+4:], math.MaxUint32)
	if _, _, err := decodeCheckpoint(checkpointWithCRC(hostile)); err == nil {
		t.Fatal("checkpoint with count 2^32-1 accepted")
	}
}

// FuzzReadCheckpoint: decoding any checkpoint bytes, as given and with the
// CRC trailer recomputed, never panics, and an accepted file's snapshots
// fit inside it.
func FuzzReadCheckpoint(f *testing.F) {
	jl := checkpointJournal(f, f.TempDir())
	f.Add(writtenCheckpoint(f, jl, 0, nil))
	f.Add(writtenCheckpoint(f, jl, 1, [][]byte{[]byte("snapshot")}))
	f.Add(writtenCheckpoint(f, jl, 4, [][]byte{[]byte("alpha"), {}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, checkpointWithCRC(data)} {
			_, snaps, err := decodeCheckpoint(in)
			if err != nil {
				continue
			}
			total := 4 * len(snaps)
			for _, s := range snaps {
				total += len(s)
			}
			if total > len(in) {
				t.Fatalf("%d snapshots totalling %d bytes decoded from %d", len(snaps), total, len(in))
			}
		}
	})
}
