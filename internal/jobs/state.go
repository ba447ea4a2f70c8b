package jobs

import (
	"cmp"
	"fmt"
	"strings"
	"time"
)

// State is a job's position in the lifecycle:
//
//	submit → Queued → Running → Done
//	                     │  ↘ fail (attempt charged) → Queued … → Quarantined
//	                     └─ requeue (drain / busy workdir / restart) → Queued
//
// Every transition is journaled before it takes effect, so the state
// is a pure function of the journal and replays identically after a
// crash at any point.
type State string

const (
	StateQueued      State = "queued"
	StateRunning     State = "running"
	StateDone        State = "done"
	StateQuarantined State = "quarantined"
)

// Terminal reports whether a state accepts no further transitions
// (other than artifact GC).
func (s State) Terminal() bool { return s == StateDone || s == StateQuarantined }

// Job is the replayed view of one submission.
type Job struct {
	ID   string `json:"id"`
	Key  string `json:"key"`
	Spec Spec   `json:"spec"`

	State    State  `json:"state"`
	Attempts int    `json:"attempts"` // failed attempts charged so far
	Requeues int    `json:"requeues"` // uncharged returns to the queue
	PID      int    `json:"pid,omitempty"`
	Err      string `json:"error,omitempty"`

	SubmittedAt int64 `json:"submitted_at"` // unix nanos
	StartedAt   int64 `json:"started_at,omitempty"`
	FinishedAt  int64 `json:"finished_at,omitempty"`

	// GCed means the sweep removed the job's intermediate artifacts
	// (workdir + input); the result files, if any, remain cached.
	GCed bool `json:"gced,omitempty"`

	// notBefore gates retries (backoff); in-memory only — after a
	// restart a queued job is immediately eligible.
	notBefore time.Time
}

// Eligible reports whether the job may be picked up at t.
func (job *Job) Eligible(t time.Time) bool {
	return job.State == StateQueued && !t.Before(job.notBefore)
}

// Replay folds journal records into the job map and the idempotency
// index. A transition that is impossible from the replayed state means
// the journal is corrupt — better to refuse service than to guess.
func Replay(recs []Record) (map[string]*Job, map[string]string, error) {
	jobs := map[string]*Job{}
	byKey := map[string]string{}
	for _, r := range recs {
		if err := applyRecord(jobs, byKey, r); err != nil {
			return nil, nil, err
		}
	}
	return jobs, byKey, nil
}

// applyRecord mutates the in-memory view with one journaled
// transition. Replay (restart) and the live server apply records
// through this single function, so the state after a crash is the
// state the server was in.
func applyRecord(jobs map[string]*Job, byKey map[string]string, r Record) error {
	job := jobs[r.Job]
	if r.Op != OpSubmit && job == nil {
		return fmt.Errorf("jobs: journal record %d: %s for unknown job %s", r.Seq, r.Op, r.Job)
	}
	switch r.Op {
	case OpSubmit:
		if job != nil {
			return fmt.Errorf("jobs: journal record %d: duplicate submit of %s", r.Seq, r.Job)
		}
		if r.Spec == nil {
			return fmt.Errorf("jobs: journal record %d: submit without spec", r.Seq)
		}
		if other, dup := byKey[r.Key]; dup {
			return fmt.Errorf("jobs: journal record %d: key of %s already owned by %s", r.Seq, r.Job, other)
		}
		jobs[r.Job] = &Job{ID: r.Job, Key: r.Key, Spec: *r.Spec, State: StateQueued, SubmittedAt: r.T}
		byKey[r.Key] = r.Job
	case OpStart:
		if job.State != StateQueued {
			return badTransition(r, job.State)
		}
		job.State = StateRunning
		job.PID = r.PID
		job.StartedAt = r.T
	case OpDone:
		if job.State != StateRunning {
			return badTransition(r, job.State)
		}
		job.State = StateDone
		job.Err = ""
		job.FinishedAt = r.T
	case OpFail:
		if job.State != StateRunning {
			return badTransition(r, job.State)
		}
		job.State = StateQueued
		job.Attempts++
		job.Err = r.Err
	case OpRequeue:
		if job.State != StateRunning && job.State != StateQueued {
			return badTransition(r, job.State)
		}
		job.State = StateQueued
		job.Requeues++
	case OpQuarantine:
		if job.State.Terminal() {
			return badTransition(r, job.State)
		}
		job.State = StateQuarantined
		if r.Err != "" {
			job.Err = r.Err
		}
		job.FinishedAt = r.T
	case OpGC:
		if !job.State.Terminal() {
			return badTransition(r, job.State)
		}
		job.GCed = true
	default:
		return fmt.Errorf("jobs: journal record %d: unknown op %q", r.Seq, r.Op)
	}
	return nil
}

func badTransition(r Record, s State) error {
	return fmt.Errorf("jobs: journal record %d: %s on %s in state %s", r.Seq, r.Op, r.Job, s)
}

// newestFirst orders jobs newest-submission-first for listings.
func newestFirst(a, b *Job) int {
	return cmp.Or(cmp.Compare(b.SubmittedAt, a.SubmittedAt), strings.Compare(a.ID, b.ID))
}
