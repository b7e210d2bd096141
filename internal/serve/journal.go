package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// The durable job journal. Every submitted sweep owns one directory under
// <root>/jobs/<id>/ holding:
//
//	job.json       the immutable job record: spec (canonical scenario
//	               JSON), cache key, engine, priority, submit time —
//	               written once via temp-file+rename with file and
//	               directory fsync, so an acknowledged submission
//	               survives power loss.
//	journal.jsonl  the append-only lifecycle log: queued/running
//	               transitions, one record per completed ladder point
//	               (carrying the point's result document verbatim), and
//	               a single terminal done/failed/canceled record. Each
//	               append is fsync'd before the caller proceeds.
//	ckpt.bin       the warm-start chain state: the per-replica engine
//	               snapshots (EVTSNAP1/SLOTSNP1 wire bytes) captured at
//	               the end of the last checkpointed point, replaced
//	               atomically per point.
//	lease          the worker claim file (lease.go).
//	cancel         a marker requesting cancellation; workers poll it
//	               between ladder points.
//	terminal       the exactly-once commit marker: created O_EXCL by
//	               whichever process finishes the job first, so a worker
//	               that lost its lease mid-run can never double-complete
//	               a job another worker already finished.
//
// Replay tolerates a torn final journal record (a crash mid-append): a
// trailing line without a newline, or one that does not parse, is
// ignored, and the next append truncates it away before writing — so
// replaying twice, or replaying then appending, always yields the same
// state.

// Journal record types.
const (
	recQueued   = "queued"   // job is claimable; Retry counts prior crashes
	recRunning  = "running"  // a worker claimed the job (Pid, Token)
	recPoint    = "point"    // ladder point Point completed with Doc
	recDone     = "done"     // terminal: result document in the cache
	recFailed   = "failed"   // terminal: Error, Permanent
	recCanceled = "canceled" // terminal: canceled by the client
)

// Record is one journal line.
type Record struct {
	T string `json:"t"`
	// At is the record's wall-clock time in Unix nanoseconds. On queued
	// records it anchors the retry backoff window.
	At int64 `json:"at,omitempty"`
	// Retry is the crash-requeue count on queued records.
	Retry int `json:"retry,omitempty"`
	// Pid and Token identify the claiming worker on running records.
	Pid   int    `json:"pid,omitempty"`
	Token string `json:"token,omitempty"`
	// Point and Doc carry one completed ladder point (recPoint).
	Point int             `json:"i,omitempty"`
	Doc   json.RawMessage `json:"doc,omitempty"`
	// Error and Permanent classify failures (recFailed).
	Error     string `json:"error,omitempty"`
	Permanent bool   `json:"permanent,omitempty"`
}

// JobRecord is the immutable half of a job, written once at submission.
type JobRecord struct {
	ID       string          `json:"id"`
	Key      string          `json:"key"`
	Engine   string          `json:"engine"`
	Priority int             `json:"priority,omitempty"`
	Scenario json.RawMessage `json:"scenario"`
	// Submitted is the submission wall-clock time in Unix nanoseconds;
	// with Priority it fixes the claim order across workers.
	Submitted int64 `json:"submitted"`
}

// JobState is a job's replayed state: the job record plus everything the
// journal proves happened.
type JobState struct {
	Rec    JobRecord
	Status string
	// Retry is the latest queued record's crash-requeue count.
	Retry int
	// Points holds the completed prefix of ladder-point documents,
	// verbatim journal bytes, indexed by point.
	Points []json.RawMessage
	Error  string
	// LastAt is the At of the latest lifecycle transition (not point)
	// record — the backoff anchor for requeued jobs.
	LastAt int64
	// Pid is the claiming worker of the latest running record.
	Pid int
}

// Terminal reports whether the replayed status is a terminal one.
func (st *JobState) Terminal() bool {
	return st.Status == StatusDone || st.Status == StatusFailed || st.Status == StatusCanceled
}

// ErrAlreadyTerminal is CommitTerminal's exactly-once refusal: another
// process already finished this job.
var ErrAlreadyTerminal = errors.New("serve: job already terminal")

// Journal is the on-disk job store shared by the front-end server and
// every worker process.
type Journal struct {
	root string
}

// OpenJournal opens (creating if needed) the journal rooted at dir.
func OpenJournal(dir string) (*Journal, error) {
	if dir == "" {
		return nil, errors.New("serve: journal needs a directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("serve: journal: %w", err)
	}
	return &Journal{root: dir}, nil
}

func (jl *Journal) jobsDir() string         { return filepath.Join(jl.root, "jobs") }
func (jl *Journal) JobDir(id string) string { return filepath.Join(jl.jobsDir(), id) }

func (jl *Journal) jobPath(id string) string    { return filepath.Join(jl.JobDir(id), "job.json") }
func (jl *Journal) logPath(id string) string    { return filepath.Join(jl.JobDir(id), "journal.jsonl") }
func (jl *Journal) ckptPath(id string) string   { return filepath.Join(jl.JobDir(id), "ckpt.bin") }
func (jl *Journal) cancelPath(id string) string { return filepath.Join(jl.JobDir(id), "cancel") }
func (jl *Journal) termPath(id string) string   { return filepath.Join(jl.JobDir(id), "terminal") }
func (jl *Journal) leaseDir(id string) string   { return jl.JobDir(id) }

// Create journals a new job: the immutable record, durably, then the
// initial queued lifecycle record. After Create returns, the job survives
// any crash.
func (jl *Journal) Create(rec JobRecord) error {
	dir := jl.JobDir(rec.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("serve: journal create: %w", err)
	}
	if err := syncDir(jl.jobsDir()); err != nil {
		return err
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("serve: journal create: %w", err)
	}
	if err := writeFileSync(jl.jobPath(rec.ID), data); err != nil {
		return err
	}
	return jl.Append(rec.ID, Record{T: recQueued, At: rec.Submitted})
}

// Append adds one record to the job's journal and fsyncs it. A torn
// trailing record from an earlier crash is truncated away first, so the
// log parses cleanly afterwards.
func (jl *Journal) Append(id string, rec Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("serve: journal append: %w", err)
	}
	f, err := os.OpenFile(jl.logPath(id), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("serve: journal append: %w", err)
	}
	defer f.Close()
	end, err := repairTail(f)
	if err != nil {
		return fmt.Errorf("serve: journal append: %w", err)
	}
	if _, err := f.WriteAt(append(line, '\n'), end); err != nil {
		return fmt.Errorf("serve: journal append: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("serve: journal append: %w", err)
	}
	return nil
}

// repairTail returns the offset just past the last complete
// (newline-terminated) record, truncating any torn tail.
func repairTail(f *os.File) (int64, error) {
	data, err := readAll(f)
	if err != nil {
		return 0, err
	}
	end := int64(len(data))
	if end > 0 && data[end-1] != '\n' {
		if i := bytes.LastIndexByte(data, '\n'); i >= 0 {
			end = int64(i + 1)
		} else {
			end = 0
		}
		if err := f.Truncate(end); err != nil {
			return 0, err
		}
	}
	return end, nil
}

func readAll(f *os.File) ([]byte, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data := make([]byte, fi.Size())
	if _, err := f.ReadAt(data, 0); err != nil && len(data) > 0 {
		return nil, err
	}
	return data, nil
}

// Replay reconstructs a job's state from its journal. A torn or
// unparseable trailing record is ignored (replaying twice yields the same
// state); point records are idempotent by index, so a worker that re-ran
// a point after a crash does not duplicate it.
func (jl *Journal) Replay(id string) (*JobState, error) {
	raw, err := os.ReadFile(jl.jobPath(id))
	if err != nil {
		return nil, fmt.Errorf("serve: journal replay %s: %w", id, err)
	}
	st := &JobState{Status: StatusQueued}
	if err := json.Unmarshal(raw, &st.Rec); err != nil {
		return nil, fmt.Errorf("serve: journal replay %s: job record: %w", id, err)
	}
	log, err := os.ReadFile(jl.logPath(id))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return st, nil
		}
		return nil, fmt.Errorf("serve: journal replay %s: %w", id, err)
	}
	replayLog(st, log)
	return st, nil
}

// replayLog applies the journal's records to st in order. It trusts
// nothing in log: a torn tail is ignored, a corrupt record ends the replay,
// and point records that would leave a hole in Points (a gap, a negative
// index, no document) are dropped, so any input yields a gap-free prefix.
func replayLog(st *JobState, log []byte) {
	for len(log) > 0 {
		nl := bytes.IndexByte(log, '\n')
		if nl < 0 {
			return // torn tail: ignore
		}
		line := log[:nl]
		log = log[nl+1:]
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return // corrupt record: everything after is untrusted
		}
		switch rec.T {
		case recQueued:
			st.Status = StatusQueued
			st.Retry = rec.Retry
			st.LastAt = rec.At
		case recRunning:
			st.Status = StatusRunning
			st.Pid = rec.Pid
			st.LastAt = rec.At
		case recPoint:
			// The single lease-holding writer never leaves a gap
			// (rec.Point > len), a negative index or an empty document;
			// drop such records rather than fabricate holes.
			switch {
			case len(rec.Doc) == 0 || rec.Point < 0:
			case rec.Point == len(st.Points):
				st.Points = append(st.Points, rec.Doc)
			case rec.Point < len(st.Points):
				st.Points[rec.Point] = rec.Doc
			}
		case recDone:
			st.Status = StatusDone
			st.LastAt = rec.At
		case recFailed:
			st.Status = StatusFailed
			st.Error = rec.Error
			st.LastAt = rec.At
		case recCanceled:
			st.Status = StatusCanceled
			st.Error = rec.Error
			st.LastAt = rec.At
		}
	}
}

// List returns every journaled job id, ordered by (priority desc,
// submission time asc) — the queue order workers claim in.
func (jl *Journal) List() ([]string, error) {
	ents, err := os.ReadDir(jl.jobsDir())
	if err != nil {
		return nil, fmt.Errorf("serve: journal list: %w", err)
	}
	type meta struct {
		id   string
		prio int
		sub  int64
	}
	var jobs []meta
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		raw, err := os.ReadFile(jl.jobPath(e.Name()))
		if err != nil {
			continue // half-created job dir: not yet submitted
		}
		var rec JobRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			continue
		}
		jobs = append(jobs, meta{id: e.Name(), prio: rec.Priority, sub: rec.Submitted})
	}
	sort.Slice(jobs, func(i, j int) bool {
		if jobs[i].prio != jobs[j].prio {
			return jobs[i].prio > jobs[j].prio
		}
		if jobs[i].sub != jobs[j].sub {
			return jobs[i].sub < jobs[j].sub
		}
		return jobs[i].id < jobs[j].id
	})
	ids := make([]string, len(jobs))
	for i, m := range jobs {
		ids[i] = m.id
	}
	return ids, nil
}

// CommitTerminal appends the terminal record for a job, exactly once
// across all processes: the commit is gated on O_EXCL creation of the
// terminal marker, so of two workers racing to finish one job (a lease
// stolen after a late heartbeat), exactly one wins and the other gets
// ErrAlreadyTerminal and discards its result.
func (jl *Journal) CommitTerminal(id string, rec Record) error {
	f, err := os.OpenFile(jl.termPath(id), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		if errors.Is(err, fs.ErrExist) {
			return ErrAlreadyTerminal
		}
		return fmt.Errorf("serve: terminal commit: %w", err)
	}
	f.Close()
	if err := syncDir(jl.JobDir(id)); err != nil {
		return err
	}
	return jl.Append(id, rec)
}

// MarkCancel requests cancellation of a job: workers poll the marker
// between ladder points. Idempotent.
func (jl *Journal) MarkCancel(id string) error {
	f, err := os.OpenFile(jl.cancelPath(id), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("serve: cancel mark: %w", err)
	}
	f.Close()
	return syncDir(jl.JobDir(id))
}

// CancelRequested reports whether the job's cancel marker exists.
func (jl *Journal) CancelRequested(id string) bool {
	_, err := os.Stat(jl.cancelPath(id))
	return err == nil
}

// Checkpoint wire format: magic, the index of the last completed point,
// and the per-replica engine snapshot blobs, CRC-framed so a damaged file
// is rejected rather than resumed from.
const ckptMagic = "SWPCKPT1"

// WriteCheckpoint atomically replaces the job's warm-start chain state:
// the engine snapshots captured at the end of ladder point `point`.
func (jl *Journal) WriteCheckpoint(id string, point int, snaps [][]byte) error {
	var buf bytes.Buffer
	buf.WriteString(ckptMagic)
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(point))
	buf.Write(n[:])
	binary.LittleEndian.PutUint32(n[:], uint32(len(snaps)))
	buf.Write(n[:])
	for _, s := range snaps {
		binary.LittleEndian.PutUint32(n[:], uint32(len(s)))
		buf.Write(n[:])
		buf.Write(s)
	}
	binary.LittleEndian.PutUint32(n[:], crc32.ChecksumIEEE(buf.Bytes()))
	buf.Write(n[:])
	return writeFileSync(jl.ckptPath(id), buf.Bytes())
}

// ReadCheckpoint loads the job's chain state: the index of the last
// checkpointed point and its snapshots. Any damage (missing file, bad
// magic, bad CRC, truncation) is an error; callers fall back to
// re-running the chain from the start, which is correct because the
// engines are deterministic.
func (jl *Journal) ReadCheckpoint(id string) (point int, snaps [][]byte, err error) {
	data, err := os.ReadFile(jl.ckptPath(id))
	if err != nil {
		return 0, nil, err
	}
	return decodeCheckpoint(data)
}

// decodeCheckpoint parses a SWPCKPT1 file. The snapshots alias data. The
// snapshot count is checked against the bytes present before anything is
// allocated, so a file cannot ask for more memory than its own size.
func decodeCheckpoint(data []byte) (point int, snaps [][]byte, err error) {
	if len(data) < len(ckptMagic)+12 || string(data[:len(ckptMagic)]) != ckptMagic {
		return 0, nil, errors.New("serve: checkpoint: bad header")
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return 0, nil, errors.New("serve: checkpoint: CRC mismatch")
	}
	p := body[len(ckptMagic):]
	point = int(binary.LittleEndian.Uint32(p))
	count := int(binary.LittleEndian.Uint32(p[4:]))
	p = p[8:]
	if count > len(p)/4 {
		// Every snapshot needs at least its 4-byte length.
		return 0, nil, errors.New("serve: checkpoint: truncated")
	}
	snaps = make([][]byte, 0, count)
	for range count {
		if len(p) < 4 {
			return 0, nil, errors.New("serve: checkpoint: truncated")
		}
		sz := int(binary.LittleEndian.Uint32(p))
		p = p[4:]
		if len(p) < sz {
			return 0, nil, errors.New("serve: checkpoint: truncated")
		}
		snaps = append(snaps, p[:sz:sz])
		p = p[sz:]
	}
	return point, snaps, nil
}

// writeFileSync writes data to path durably: a temp file in the same
// directory, fsync'd before the rename, and the parent directory fsync'd
// after — so the rename itself survives power loss, not just process
// death.
func writeFileSync(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("serve: durable write: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: durable write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: durable write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: durable write: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: durable write: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making renames and creates within it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("serve: dir sync: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("serve: dir sync: %w", err)
	}
	return nil
}
