package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"repro/internal/durable"
)

// Op is one journaled job-state transition.
type Op string

const (
	// OpSubmit creates a job (acknowledged to the client only after
	// the record is durably appended).
	OpSubmit Op = "submit"
	// OpStart marks an attempt's runner process spawned.
	OpStart Op = "start"
	// OpDone marks the job complete with its artifacts on disk.
	OpDone Op = "done"
	// OpFail charges a failed attempt (the job returns to the queue
	// until its retry budget is exhausted).
	OpFail Op = "fail"
	// OpRequeue returns a running job to the queue without charging
	// an attempt: graceful drain, a busy workdir, or restart adoption.
	OpRequeue Op = "requeue"
	// OpQuarantine parks a poison job that exhausted its budget.
	OpQuarantine Op = "quarantine"
	// OpGC records that a job's intermediate artifacts were swept.
	OpGC Op = "gc"
)

// Record is one journal entry. Seq is assigned by Append and must
// increase by exactly 1 per record — replay treats any gap as
// corruption rather than silently skipping acknowledged work.
type Record struct {
	Seq     uint64 `json:"seq"`
	Op      Op     `json:"op"`
	Job     string `json:"job"`
	T       int64  `json:"t,omitempty"` // unix nanos, informational
	Key     string `json:"key,omitempty"`
	Spec    *Spec  `json:"spec,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	PID     int    `json:"pid,omitempty"`
	Err     string `json:"err,omitempty"`
	Reason  string `json:"reason,omitempty"`
}

// Journal is the append-only job log. Every record is one line:
// an 8-hex-digit CRC32 of the JSON payload, a space, the payload.
// Appends are fsynced before they return, so an acknowledged
// submission survives SIGKILL; a torn final line (crash mid-append)
// is detected by its checksum and truncated on the next open. A
// Journal is not safe for concurrent use: the server appends under
// its own lock, in the order its supervisor made the transitions.
type Journal struct {
	f    *os.File
	path string
	seq  uint64
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func encodeRecord(r Record) ([]byte, error) {
	payload, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	line := make([]byte, 0, len(payload)+10)
	line = fmt.Appendf(line, "%08x ", crc32.Checksum(payload, crcTable))
	line = append(line, payload...)
	line = append(line, '\n')
	return line, nil
}

// parseLine decodes one newline-stripped journal line, returning
// ok=false for a line whose checksum or framing fails.
func parseLine(line []byte) (Record, bool) {
	var rec Record
	if len(line) < 10 || line[8] != ' ' {
		return rec, false
	}
	var sum uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &sum); err != nil {
		return rec, false
	}
	payload := line[9:]
	if crc32.Checksum(payload, crcTable) != sum {
		return rec, false
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, false
	}
	return rec, true
}

// OpenJournal opens (creating if absent) the journal at path, returns
// the replayable records, and leaves the file positioned for appends.
// A torn tail — the final record half-written by a crash — is
// truncated away; a bad record followed by valid ones means the log
// was corrupted mid-file and is an error, never a silent skip.
func OpenJournal(path string) (*Journal, []Record, error) {
	b, err := os.ReadFile(path)
	created := os.IsNotExist(err)
	if err != nil && !created {
		return nil, nil, fmt.Errorf("jobs: read journal: %w", err)
	}
	var recs []Record
	valid := 0 // byte length of the valid prefix
	for off := 0; off < len(b); {
		nl := bytes.IndexByte(b[off:], '\n')
		if nl < 0 {
			break // no newline: torn tail
		}
		rec, ok := parseLine(b[off : off+nl])
		if !ok || rec.Seq != uint64(len(recs))+1 {
			// Bad record. If anything after it parses, the log is
			// corrupted mid-file; otherwise it is just the torn tail.
			if rest := b[off+nl+1:]; hasValidRecord(rest) {
				return nil, nil, fmt.Errorf("jobs: journal %s corrupted at byte %d (record %d)", path, off, len(recs)+1)
			}
			break
		}
		recs = append(recs, rec)
		off += nl + 1
		valid = off
	}
	if valid < len(b) {
		if err := os.Truncate(path, int64(valid)); err != nil {
			return nil, nil, fmt.Errorf("jobs: truncate torn journal tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	// A new journal's name is durable once its directory is synced;
	// each append syncs only the file.
	if err == nil && created {
		if err = durable.SyncDir(filepath.Dir(path)); err != nil {
			f.Close()
		}
	}
	if err != nil {
		return nil, nil, fmt.Errorf("jobs: open journal: %w", err)
	}
	// The scan above checked that record i carries Seq i+1.
	return &Journal{f: f, path: path, seq: uint64(len(recs))}, recs, nil
}

// hasValidRecord reports whether any newline-terminated line in b
// parses as a journal record.
func hasValidRecord(b []byte) bool {
	for off := 0; off < len(b); {
		nl := bytes.IndexByte(b[off:], '\n')
		if nl < 0 {
			return false
		}
		if _, ok := parseLine(b[off : off+nl]); ok {
			return true
		}
		off += nl + 1
	}
	return false
}

// Append durably writes one record (assigning its sequence number and
// timestamp) and returns the record as written, only after fsync — the
// caller may then apply it in memory and acknowledge the transition.
func (j *Journal) Append(r Record) (Record, error) {
	if j.f == nil {
		return r, fmt.Errorf("jobs: journal closed")
	}
	j.seq++
	r.Seq = j.seq
	if r.T == 0 {
		r.T = time.Now().UnixNano()
	}
	line, err := encodeRecord(r)
	if err != nil {
		j.seq--
		return r, fmt.Errorf("jobs: encode journal record: %w", err)
	}
	if _, err := j.f.Write(line); err != nil {
		return r, fmt.Errorf("jobs: append journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return r, fmt.Errorf("jobs: sync journal: %w", err)
	}
	return r, nil
}

// Close releases the journal file. Further Appends fail.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
