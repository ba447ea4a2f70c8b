package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// StreamVersion is the events stream format every record carries.
// Version 1 was the single-document dump written before events
// streams; ReadStream names it rather than failing on its fields.
const StreamVersion = 2

// ErrStreamVersion marks a stream of another format version.
var ErrStreamVersion = errors.New("unsupported events stream format")

// maxStreamRanks bounds the machine size a stream record may claim, so
// a corrupt record cannot make the fold allocate without limit.
const maxStreamRanks = 1 << 16

// RankDump is one rank's retained event stream plus how many of its
// events were lost (a truncated stream disqualifies the strict causal
// checks).
type RankDump struct {
	Rank    int     `json:"rank"`
	Dropped uint64  `json:"dropped,omitempty"`
	Events  []Event `json:"events"`
}

// Dump is the lossless raw form of a run's trace: every event of every
// rank, with both clock domains and the per-sender sequence numbers
// intact. The Chrome trace_event export collapses the modeled clock to
// a single timestamp per event, so causal analysis (asmprof,
// internal/obs/analyze) consumes this form instead, and asmprof
// -chrome renders the Chrome form from it on demand. On disk a dump is
// an events stream (Record); ReadStream folds one back.
type Dump struct {
	Ranks []RankDump `json:"ranks"`
}

// Dump snapshots the tracer's retained events per rank.
func (t *Tracer) Dump() *Dump {
	d := &Dump{}
	if t == nil {
		return d
	}
	for r := 0; r < t.Ranks(); r++ {
		d.Ranks = append(d.Ranks, RankDump{
			Rank:    r,
			Dropped: t.Dropped(r),
			Events:  t.Events(r),
		})
	}
	return d
}

// Record is one line of an events stream, the file -events-out names.
// A process appends one record per reporting interval while it runs
// and a final one, carrying its verdict, as it exits; the same file is
// the live view while the run lasts and the post-hoc trace after it.
//
// Version is StreamVersion (WriteRecord stamps it). Run identifies the
// run: its start in Unix nanoseconds, the same in every process of the
// run, so a reader can tell a run's files from an earlier run's left
// at the same path. Rank is the writing process's rank and Covers the
// ranks whose streams its tracer owns (its own rank for one process
// per rank, every rank for an in-process machine); Size is the machine
// size. Streams holds, per covered rank, the events the writer's
// cursor passed over since its previous record (Tracer.EventsSince)
// and how many were lost before they could be written: evicted by ring
// wraparound, or carried by a record whose write failed. Metrics is
// the whole registry, so the latest record's replaces the earlier
// ones'.
type Record struct {
	Version int    `json:"version"`
	Run     int64  `json:"run,omitempty"`
	Job     string `json:"job,omitempty"`
	Rank    int    `json:"rank"`
	PID     int    `json:"pid,omitempty"`
	Size    int    `json:"size"`
	Covers  []int  `json:"covers"`

	Metrics *MetricsState `json:"metrics,omitempty"`
	Streams []RankDump    `json:"streams,omitempty"`

	Final      bool   `json:"final,omitempty"`
	ExitOK     bool   `json:"exit_ok,omitempty"`
	ExitReason string `json:"exit_reason,omitempty"`
}

// WriteRecord appends rec, stamped with StreamVersion, to w as one
// line of an events stream, in a single Write.
func WriteRecord(w io.Writer, rec *Record) error {
	v := *rec
	v.Version = StreamVersion
	b, err := json.Marshal(&v)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// WriteEvents writes the tracer as a finished one-record events
// stream covering every rank: what a process that traced a whole run
// in memory leaves behind.
func (t *Tracer) WriteEvents(w io.Writer) error {
	d := t.Dump()
	rec := &Record{Size: len(d.Ranks), Final: true, ExitOK: true}
	for _, rd := range d.Ranks {
		rec.Covers = append(rec.Covers, rd.Rank)
	}
	rec.Streams = d.Ranks
	return WriteRecord(w, rec)
}

// Stream is one events stream folded: the writer's identity and
// verdict from its records, and the trace they carried.
type Stream struct {
	Run     int64
	Job     string
	PID     int
	Covers  []int
	Records int
	Metrics *MetricsState // the last record's

	// Final is set when the stream ends with its writer's final record;
	// ExitOK and ExitReason are that record's verdict.
	Final      bool
	ExitOK     bool
	ExitReason string

	// Dump holds every rank of the machine: a covered rank's events are
	// the last DefaultRingCap of its batches in order — what a tracer of
	// the default capacity retains — and its Dropped counts the rest
	// plus the batches' own drop counts, plus one when the stream has no
	// final record (the writer died or is still running, so the tail is
	// missing). Other ranks are empty.
	Dump *Dump
}

// ReadStream folds an events stream. A record is one line including
// its newline, so a stream cut at any byte — a writer killed mid-append,
// or one still writing — reads as the whole records before the cut.
// Any other malformed line is an error. However long the stream, the
// fold holds at most 2·DefaultRingCap events per rank besides the
// record being read.
func ReadStream(r io.Reader) (*Stream, error) {
	s := &Stream{Dump: &Dump{}}
	covered := map[int]bool{}
	size := 0
	br := bufio.NewReader(r)
	for {
		line, err := br.ReadBytes('\n')
		if errors.Is(err, io.EOF) {
			break // a torn tail, or nothing
		}
		if err != nil {
			return nil, err
		}
		rec, err := decodeRecord(line)
		if err != nil {
			return nil, fmt.Errorf("obs: events stream record %d: %w", s.Records+1, err)
		}
		s.Records++
		s.Run, s.Job, s.PID = rec.Run, rec.Job, rec.PID
		s.Final, s.ExitOK, s.ExitReason = rec.Final, rec.ExitOK, rec.ExitReason
		if rec.Metrics != nil {
			s.Metrics = rec.Metrics
		}
		size = max(size, rec.Size)
		for len(s.Dump.Ranks) < size {
			s.Dump.Ranks = append(s.Dump.Ranks, RankDump{Rank: len(s.Dump.Ranks)})
		}
		for _, c := range rec.Covers {
			if !covered[c] {
				covered[c] = true
				s.Covers = append(s.Covers, c)
			}
		}
		for _, st := range rec.Streams {
			rd := &s.Dump.Ranks[st.Rank]
			rd.Events = append(rd.Events, st.Events...)
			rd.Dropped += st.Dropped
			if len(rd.Events) >= 2*DefaultRingCap {
				keepLast(rd, DefaultRingCap)
			}
		}
	}
	for i := range s.Dump.Ranks {
		keepLast(&s.Dump.Ranks[i], DefaultRingCap)
	}
	if !s.Final {
		for _, c := range s.Covers {
			s.Dump.Ranks[c].Dropped++
		}
	}
	return s, nil
}

// keepLast drops all but rd's last n events, in place, counting them
// in rd.Dropped.
func keepLast(rd *RankDump, n int) {
	if over := len(rd.Events) - n; over > 0 {
		rd.Dropped += uint64(over)
		rd.Events = rd.Events[:copy(rd.Events, rd.Events[over:])]
	}
}

// decodeRecord parses and checks one stream line.
func decodeRecord(line []byte) (*Record, error) {
	var rec Record
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	err := dec.Decode(&rec)
	if err != nil {
		// A line of another format version fails on its fields; name
		// the version rather than the field.
		var v struct {
			Version int `json:"version"`
		}
		if json.Unmarshal(line, &v) != nil || v.Version == 0 || v.Version == StreamVersion {
			return nil, err
		}
		rec.Version = v.Version
	}
	switch {
	case rec.Version == 1:
		return nil, fmt.Errorf("%w: a version 1 events dump (one JSON document, written before events streams)", ErrStreamVersion)
	case rec.Version != StreamVersion:
		return nil, fmt.Errorf("%w: version %d, this reader takes %d", ErrStreamVersion, rec.Version, StreamVersion)
	}
	return &rec, rec.check()
}

// check rejects a record no writer produces: a machine size out of
// range, or a rank outside it.
func (rec *Record) check() error {
	if rec.Size < 1 || rec.Size > maxStreamRanks {
		return fmt.Errorf("machine size %d out of range", rec.Size)
	}
	in := func(r int) bool { return r >= 0 && r < rec.Size }
	ok := in(rec.Rank)
	for _, c := range rec.Covers {
		ok = ok && in(c)
	}
	for _, st := range rec.Streams {
		ok = ok && in(st.Rank)
	}
	if !ok {
		return fmt.Errorf("rank out of range for machine size %d", rec.Size)
	}
	return nil
}

// MergeDumps combines per-process event dumps into one machine-wide
// dump. Multi-process transport runs write one stream per rank, each
// populating only its own rank; the merge takes, for every rank, the
// unique non-empty stream across the inputs. A rank with traffic in
// two dumps is ambiguous (two processes claimed the same rank) and an
// error. A rank no dump covers — a process SIGKILLed before its first
// append — is filled with an empty stream marked Dropped, which exempts
// it (and the cross-rank matching that would need its sends) from the
// strict causal checks, exactly as a truncated stream does.
func MergeDumps(dumps ...*Dump) (*Dump, error) {
	if len(dumps) == 0 {
		return nil, fmt.Errorf("obs: no dumps to merge")
	}
	byRank := map[int]RankDump{}
	ranks := 0
	for i, d := range dumps {
		for _, rd := range d.Ranks {
			if rd.Rank < 0 {
				return nil, fmt.Errorf("obs: dump %d: negative rank %d", i, rd.Rank)
			}
			if rd.Rank >= ranks {
				ranks = rd.Rank + 1
			}
			if len(rd.Events) == 0 && rd.Dropped == 0 {
				continue // a remote rank's empty stream says nothing
			}
			if prev, ok := byRank[rd.Rank]; ok && (len(prev.Events) > 0 || prev.Dropped > 0) {
				return nil, fmt.Errorf("obs: rank %d has events in more than one dump", rd.Rank)
			}
			byRank[rd.Rank] = rd
		}
	}
	m := &Dump{}
	for r := 0; r < ranks; r++ {
		rd, ok := byRank[r]
		if !ok {
			rd = RankDump{Rank: r, Dropped: 1} // no dump: treat as truncated
		}
		m.Ranks = append(m.Ranks, rd)
	}
	return m, nil
}

// ReadStreamFile reads and folds one events stream file.
func ReadStreamFile(path string) (*Stream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := ReadStream(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
