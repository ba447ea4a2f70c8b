// Package collector is the live side of a run's telemetry. Every
// process of a run appends records to its events stream (Reporter; the
// file -events-out names, one per process under a socket transport),
// and Read collects those files into the run's status at a given
// instant: per-rank health from each file's append age, phase progress
// and traffic from the streamed events, and an incremental
// comm/comp/idle decomposition with straggler detection
// (internal/obs/analyze in partial mode) attributed exactly as the
// post-hoc reports attribute it. The files are the post-hoc trace too
// (obs.ReadStream folds them), so watching live and reading afterwards
// see one format.
package collector

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/prof"
)

// Rank health is judged by the age of the last append to the stream
// covering it: a rank is "late" once it is WarnAfter old and "dead"
// once it is DeadAfter old. A SIGKILLed process stops appending, so
// its age grows without bound and it crosses both.
const (
	WarnAfter = 2 * time.Second
	DeadAfter = 8 * time.Second
)

// imbalanceThreshold flags the slowest rank of a phase as a straggler
// when the phase's max/mean rank time reaches it, matching the post-hoc
// report's imbalance column.
const imbalanceThreshold = 1.5

// Rank health states, ordered by increasing alarm.
const (
	StateWaiting = "waiting" // expected but no stream covers it yet
	StateAlive   = "alive"   // appended within WarnAfter
	StateLate    = "late"    // last append WarnAfter old
	StateDead    = "dead"    // last append DeadAfter old, no final record
	StateDone    = "done"    // final record, exit OK
	StateFailed  = "failed"  // final record, exit not OK
)

// RankStatus is one rank's row of the live view.
type RankStatus struct {
	Rank    int
	State   string
	PID     int
	Records int
	// Appended is the time of the covering stream's last append (zero
	// while waiting); LagMs is its age at the status's instant in
	// milliseconds, -1 before the first and after the final record.
	Appended time.Time
	LagMs    int64

	// Phase is the innermost phase the rank's event stream shows open
	// ("" between phases, "-" before any event arrived).
	Phase  string
	Events int

	// Traffic and fault counters derived from the streamed events.
	MsgsSent     int64
	MsgsRecv     int64
	BytesSent    int64
	BytesRecv    int64
	Retransmits  int64
	Drops        int64
	LeaseExpires int64
	Faults       int64

	// The rank's synchronized time and its idle share from the live
	// causal analysis (zero until the first analysis ran).
	TotalSec  float64
	IdlePct   float64
	Straggler bool

	// Runtime health gauges, present when the writing process runs a
	// profiling session (internal/obs/prof samples runtime/metrics into
	// the registry, and every record carries the registry).
	GCPauseP99Ns  int64
	SchedLatP99Ns int64
	HeapLiveBytes int64

	ExitReason string
}

// StragglerNote is one live straggler finding, attributed exactly as
// the post-hoc report attributes it: the slowest rank of a phase whose
// imbalance (max/mean rank time) crossed the threshold.
type StragglerNote struct {
	Rank      int
	Phase     string
	Sec       float64 // the rank's time in the phase
	MeanSec   float64 // mean over ranks in the phase
	Imbalance float64
}

// LiveAnalysis is the run-level summary of the causal analysis of
// everything streamed so far.
type LiveAnalysis struct {
	AnalyzedEvents int
	MakespanSec    float64
	CommSec        float64
	CompSec        float64
	IdleSec        float64
	SlowestRank    int
	// Unmatched receives are waiting for their sender's stream; a
	// large value means the live numbers still underestimate idle.
	Unmatched  int
	Stragglers []StragglerNote
	Error      string
}

// Status is the run-level view Read returns; asmprof -watch renders it.
type Status struct {
	Job         string
	ExpectRanks int
	SeenRanks   int
	Records     int
	EventsTotal int

	// Complete is set once rank 0 — the run's result owner — appended
	// its final record; ExitOK is its verdict.
	Complete bool
	ExitOK   bool

	Ranks []RankStatus
	Live  *LiveAnalysis
}

// Files lists the events streams at path, the run's -events-out: path
// itself (one process) and path.rank<r> (one per process), each also
// under its working (PartSuffix) and .interrupted names. Earlier runs'
// files among them are the caller's to tell apart (Stream.Run).
func Files(path string) []string {
	dir, base := filepath.Split(path)
	ents, err := os.ReadDir(filepath.Clean(dir + "."))
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range ents {
		n := e.Name()
		if n == base || n == base+PartSuffix || n == base+".interrupted" || strings.HasPrefix(n, base+".rank") {
			out = append(out, dir+n)
		}
	}
	return out
}

// file is one events stream and the time of its last append.
type file struct {
	s     *obs.Stream
	mtime time.Time
}

// Read folds the events streams at path (Files) into the status at now
// of the newest run among them: files an earlier run left at the same
// path are ignored, and so are files of another format version, which
// only an earlier build writes. A stream published while the files are
// read — renamed from its working name by its final record — is read
// again under its new name.
func Read(path string, now time.Time) (*Status, error) {
	for try := 1; ; try++ {
		files, vanished, err := readFiles(path)
		if err != nil {
			return nil, err
		}
		if !vanished || try == 3 {
			return status(newestRun(files), now), nil
		}
	}
}

// readFiles reads the streams Files(path) lists, skipping, and
// reporting, any renamed away since the listing.
func readFiles(path string) (files []file, vanished bool, err error) {
	for _, p := range Files(path) {
		info, err := os.Stat(p)
		var s *obs.Stream
		if err == nil {
			s, err = obs.ReadStreamFile(p)
		}
		switch {
		case errors.Is(err, fs.ErrNotExist):
			vanished = true
		case errors.Is(err, obs.ErrStreamVersion):
		case err != nil:
			return nil, false, err
		default:
			files = append(files, file{s: s, mtime: info.ModTime()})
		}
	}
	return files, vanished, nil
}

// newestRun keeps the files of the run that started last.
func newestRun(files []file) []file {
	var run int64
	for _, f := range files {
		run = max(run, f.s.Run)
	}
	return slices.DeleteFunc(files, func(f file) bool { return f.s.Run != run })
}

// status is the run's view at now: a pure function of its streams.
func status(files []file, now time.Time) *Status {
	st := &Status{}
	owner := map[int]*file{} // the stream covering each rank
	var dumps []*obs.Dump
	for i := range files {
		f := &files[i]
		st.Records += f.s.Records
		st.ExpectRanks = max(st.ExpectRanks, len(f.s.Dump.Ranks))
		if f.s.Job != "" {
			st.Job = f.s.Job
		}
		for _, r := range f.s.Covers {
			owner[r] = f
		}
		dumps = append(dumps, f.s.Dump)
	}
	st.SeenRanks = len(owner)
	if f := owner[0]; f != nil && f.s.Final {
		st.Complete, st.ExitOK = true, f.s.ExitOK
	}

	var rep *analyze.Report
	if len(dumps) > 0 {
		d, err := obs.MergeDumps(dumps...)
		if err == nil {
			rep, err = analyze.Analyze(d, analyze.Options{Partial: true})
		}
		st.Live = liveAnalysis(rep, err)
	}

	// Per-rank rows: counts derived from the covering stream's events,
	// enriched with the live decomposition.
	rows := make([]RankStatus, st.ExpectRanks)
	row := func(r int) *RankStatus {
		if r < 0 || r >= len(rows) {
			return &RankStatus{} // a lease expiry naming no rank of the run
		}
		return &rows[r]
	}
	for r := range rows {
		rows[r].Rank = r
		var evs []obs.Event
		if f := owner[r]; f != nil {
			evs = f.s.Dump.Ranks[r].Events
		}
		tally(row, r, evs)
	}
	for r := range rows {
		row := &rows[r]
		st.EventsTotal += row.Events
		row.State, row.LagMs = StateWaiting, -1
		if f := owner[r]; f != nil {
			row.PID, row.Records, row.ExitReason, row.Appended = f.s.PID, f.s.Records, f.s.ExitReason, f.mtime
			row.State = health(f, now)
			if !f.s.Final {
				// An append after now was read is no lag at all.
				row.LagMs = max(now.Sub(f.mtime), 0).Milliseconds()
			}
			if m := f.s.Metrics; m != nil {
				row.GCPauseP99Ns = m.Gauges[prof.GaugeGCPauseP99]
				row.SchedLatP99Ns = m.Gauges[prof.GaugeSchedLatP99]
				row.HeapLiveBytes = m.Gauges[prof.GaugeHeapLive]
			}
		}
		if rep != nil {
			// Match by rank, not index: mid-run the report may cover
			// only the ranks whose streams arrived so far.
			for _, rt := range rep.RankTotals {
				if rt.Rank == r {
					row.TotalSec = rt.TotalSec
					if rt.TotalSec > 0 {
						row.IdlePct = 100 * rt.IdleSec / rt.TotalSec
					}
				}
			}
		}
		if st.Live != nil {
			for _, s := range st.Live.Stragglers {
				row.Straggler = row.Straggler || s.Rank == r
			}
		}
	}
	st.Ranks = rows
	return st
}

// health classifies a rank whose stream is f at time now.
func health(f *file, now time.Time) string {
	switch age := now.Sub(f.mtime); {
	case f.s.Final && f.s.ExitOK:
		return StateDone
	case f.s.Final:
		return StateFailed
	case age >= DeadAfter:
		return StateDead
	case age >= WarnAfter:
		return StateLate
	}
	return StateAlive
}

// tally derives rank r's row from its streamed events: message, byte
// and fault counts and the innermost open phase ("-" before any
// event). A lease expiry is emitted by the master but charged to the
// worker it names.
func tally(row func(int) *RankStatus, r int, evs []obs.Event) {
	rs := row(r)
	var open []int64
	for _, e := range evs {
		switch e.Kind {
		case obs.EvSendEnd, obs.EvSsendEnd:
			rs.MsgsSent++
			rs.BytesSent += e.C
		case obs.EvRecvEnd:
			if e.C >= 0 {
				rs.MsgsRecv++
				rs.BytesRecv += e.C
			}
		case obs.EvRetransmit:
			rs.Retransmits++
		case obs.EvFault:
			rs.Faults++
			if e.A == obs.FaultDrop {
				rs.Drops++
			}
		case obs.EvLeaseExpire:
			row(int(e.A)).LeaseExpires++
		case obs.EvPhaseEnter:
			open = append(open, e.A)
		case obs.EvPhaseExit:
			for i := len(open) - 1; i >= 0; i-- {
				if open[i] == e.A {
					open = open[:i]
					break
				}
			}
		}
	}
	rs.Events = len(evs)
	switch {
	case len(open) > 0:
		rs.Phase = obs.PhaseName(open[len(open)-1])
	case len(evs) == 0:
		rs.Phase = "-"
	}
}

// liveAnalysis condenses the live report into the run summary,
// deriving straggler notes exactly as the post-hoc report does: a
// phase whose imbalance crossed the threshold names its slowest rank.
func liveAnalysis(rep *analyze.Report, err error) *LiveAnalysis {
	if err != nil {
		return &LiveAnalysis{Error: err.Error()}
	}
	la := &LiveAnalysis{
		AnalyzedEvents: rep.EventsTotal,
		MakespanSec:    rep.MakespanSec,
		CommSec:        rep.CommSec,
		CompSec:        rep.CompSec,
		IdleSec:        rep.IdleSec,
		SlowestRank:    rep.SlowestRank,
		Unmatched:      rep.Unmatched,
	}
	for _, ps := range rep.Phases {
		if ps.RankCount >= 2 && ps.Imbalance >= imbalanceThreshold {
			la.Stragglers = append(la.Stragglers, StragglerNote{
				Rank:      ps.MaxRank,
				Phase:     ps.Phase,
				Sec:       ps.MaxRankSec,
				MeanSec:   ps.MeanRankSec,
				Imbalance: ps.Imbalance,
			})
		}
	}
	return la
}
