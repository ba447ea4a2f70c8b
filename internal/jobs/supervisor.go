package jobs

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os/exec"
	"slices"
	"time"
)

// supervisor is the job service's decision core: every choice the
// service makes about a job, and nothing else. It holds no goroutine,
// lock, timer, process, file or clock. The server's loops pass each
// event in with the time, under one lock, and carry out the effects it
// returns: they journal its records first, then spawn, signal and
// reclaim, and arm one timer at its next instant. The simulator in the
// tests drives it the same way with a fake runner, an in-memory
// journal and a modeled clock.
type supervisor struct {
	cfg   Config
	rng   *rand.Rand // backoff jitter
	jobs  map[string]*Job
	byKey map[string]string
	slots []slot // one per worker

	draining bool
	drainAt  time.Time

	// reclaims holds the jobs whose reclaim is in flight (zero) or
	// failed (its next try).
	reclaims map[string]time.Time

	fx effects // reused by every event
}

// slot is one worker: idle (job nil) or running one attempt.
type slot struct {
	job     *Job
	pid     int // 0 until the attempt reports it started
	started time.Time
	termed  bool   // the drain has SIGTERMed it
	killed  string // why the supervisor SIGKILLed it
}

// effects is what one event asks of the loops.
type effects struct {
	records    []Record // journal these, in order, before anything else
	spawn      []spawn
	term, kill []int     // PIDs to SIGTERM, SIGKILL
	gc         []string  // reclaim these jobs' intermediate artifacts
	wake       time.Time // tick no later than this; zero when nothing is due
	quiet      bool      // draining, and no attempt or reclaim is left
}

type spawn struct {
	worker  int
	job     string
	attempt int
}

// admission is a submission's verdict.
type admission int

const (
	admitted admission = iota
	admitCached
	admitFull
	admitDraining
	admitPressure
)

// reclaimRetry is how long a failed reclaim waits before its next try.
const reclaimRetry = time.Minute

// newSupervisor replays recs into a core. Jobs journaled as Running
// belong to a previous incarnation; they are requeued uncharged, and
// their workdir manifest resumes them from the last completed phase.
// A queued job whose budget is spent (a crash fell between its fail
// and its quarantine) is quarantined. The returned records are the
// journal's to append; the loops start work with the first tick.
func newSupervisor(cfg Config, rng *rand.Rand, recs []Record, now time.Time) (*supervisor, effects, error) {
	jobs, byKey, err := Replay(recs)
	if err != nil {
		return nil, effects{}, err
	}
	c := &supervisor{
		cfg: cfg, rng: rng, jobs: jobs, byKey: byKey,
		slots:    make([]slot, cfg.Workers),
		reclaims: map[string]time.Time{},
	}
	for _, id := range slices.Sorted(maps.Keys(jobs)) {
		job := jobs[id]
		if job.State == StateRunning {
			c.apply(Record{Op: OpRequeue, Job: id, Reason: "server restart: re-adopted"}, now)
		}
		if job.State == StateQueued && job.Attempts >= cfg.MaxAttempts {
			c.quarantine(job, now)
		}
	}
	return c, c.fx, nil
}

// apply records a transition: the one transition function updates the
// view, and the record goes to the journal before any effect it
// licenses.
func (c *supervisor) apply(r Record, now time.Time) {
	r.T = now.UnixNano()
	if err := applyRecord(c.jobs, c.byKey, r); err != nil {
		panic(fmt.Sprintf("jobs: supervisor made an impossible transition: %v", err))
	}
	c.fx.records = append(c.fx.records, r)
}

// admit decides a submission without changing anything: free is the
// data directory's free space. An admitted one is then persisted by
// the loop and journaled by submit; a cached one names its job.
func (c *supervisor) admit(key string, free uint64) (admission, *Job) {
	switch {
	case c.draining:
		return admitDraining, nil
	case c.cfg.MinFreeBytes > 0 && free < c.cfg.MinFreeBytes:
		return admitPressure, nil
	}
	if id, dup := c.byKey[key]; dup {
		return admitCached, c.jobs[id]
	}
	active := 0
	for _, job := range c.jobs {
		if !job.State.Terminal() {
			active++
		}
	}
	if active >= c.cfg.MaxQueue {
		return admitFull, nil
	}
	return admitted, nil
}

// submit journals an admitted submission and returns the job as its
// submit record left it, which is what the client is told. An idle
// worker gets it in the same step.
func (c *supervisor) submit(key string, spec Spec, now time.Time) (Job, effects) {
	c.fx = effects{}
	c.apply(Record{Op: OpSubmit, Job: jobID(key), Key: key, Spec: &spec}, now)
	job := *c.jobs[jobID(key)]
	return job, c.settle(now)
}

// started: worker w's attempt is running as pid. One that started
// after the drain began gets its SIGTERM now.
func (c *supervisor) started(w, pid int, now time.Time) effects {
	c.fx = effects{}
	if sl := &c.slots[w]; sl.job != nil {
		sl.pid, sl.started, sl.job.PID = pid, now, pid
		if c.draining {
			c.term(sl)
		}
	}
	return c.settle(now)
}

// exited: worker w's attempt ended with waitErr (nil for exit 0, or
// the spawn's error if it never started). classify's table decides the
// record; a charge that spends the budget quarantines the job at once.
func (c *supervisor) exited(w int, waitErr error, now time.Time) effects {
	c.fx = effects{}
	sl := c.slots[w]
	if job := sl.job; job != nil {
		c.slots[w] = slot{}
		rec, backoff := classify(sl.termed, sl.killed, waitErr)
		rec.Job = job.ID
		job.PID = 0
		c.apply(rec, now)
		switch {
		case rec.Op == OpFail && job.Attempts >= c.cfg.MaxAttempts:
			c.quarantine(job, now)
		case backoff:
			job.notBefore = now.Add(c.cfg.Backoff.Delay(job.Attempts+job.Requeues, c.rng))
		}
	}
	return c.settle(now)
}

// quota: worker w's attempt has size bytes in its job directory. A
// breach kills and charges it, unless the drain already owns it.
func (c *supervisor) quota(w int, size int64, now time.Time) effects {
	c.fx = effects{}
	if sl := &c.slots[w]; sl.pid != 0 && !sl.termed && c.cfg.QuotaBytes > 0 && size > c.cfg.QuotaBytes {
		c.kill(sl, fmt.Sprintf("workdir quota exceeded (%d > %d bytes)", size, c.cfg.QuotaBytes))
	}
	return c.settle(now)
}

// reclaimed: the loop removed job id's intermediates (ok) or failed
// to; a failure retries after reclaimRetry.
func (c *supervisor) reclaimed(id string, ok bool, now time.Time) effects {
	c.fx = effects{}
	c.reclaims[id] = now.Add(reclaimRetry) // a reclaimed job is never due again
	if ok && !c.jobs[id].GCed {
		c.apply(Record{Op: OpGC, Job: id}, now)
	}
	return c.settle(now)
}

// drain stops new work: each running attempt gets one SIGTERM to
// checkpoint at its next phase boundary, and a SIGKILL if it is still
// there DrainTimeout later. Either way it requeues uncharged.
func (c *supervisor) drain(now time.Time) effects {
	c.fx = effects{}
	if !c.draining {
		c.draining, c.drainAt = true, now
		for w := range c.slots {
			c.term(&c.slots[w])
		}
	}
	return c.settle(now)
}

// tick is the timer's event: something the last step named is due.
func (c *supervisor) tick(now time.Time) effects {
	c.fx = effects{}
	return c.settle(now)
}

func (c *supervisor) term(sl *slot) {
	if sl.pid != 0 && !sl.termed && sl.killed == "" {
		sl.termed = true
		c.fx.term = append(c.fx.term, sl.pid)
	}
}

func (c *supervisor) kill(sl *slot, why string) {
	if sl.killed == "" {
		sl.killed = why
		c.fx.kill = append(c.fx.kill, sl.pid)
	}
}

func (c *supervisor) quarantine(job *Job, now time.Time) {
	c.apply(Record{
		Op: OpQuarantine, Job: job.ID,
		Err: fmt.Sprintf("retry budget exhausted after %d attempts: %s", job.Attempts, job.Err),
	}, now)
}

// settle ends every event: kill what overstayed, hand eligible jobs
// to idle workers, start due reclaims, and name the next instant at
// which a tick has work — a deadline, a drain's kill, a backoff gate
// while a worker idles, a reclaim.
func (c *supervisor) settle(now time.Time) effects {
	at := func(t time.Time) {
		if c.fx.wake.IsZero() || t.Before(c.fx.wake) {
			c.fx.wake = t
		}
	}
	for w := range c.slots {
		sl := &c.slots[w]
		limit := sl.started.Add(c.cfg.AttemptDeadline)
		if sl.termed {
			limit = c.drainAt.Add(c.cfg.DrainTimeout)
		}
		switch {
		case sl.pid == 0 || sl.killed != "":
		case now.Before(limit):
			at(limit)
		case sl.termed:
			c.kill(sl, "drain timeout")
		default:
			c.kill(sl, fmt.Sprintf("attempt deadline %s exceeded", c.cfg.AttemptDeadline))
		}
	}
	if !c.draining {
		c.dispatch(now)
		idle := slices.ContainsFunc(c.slots, func(sl slot) bool { return sl.job == nil })
		for id, job := range c.jobs {
			if idle && job.State == StateQueued && job.notBefore.After(now) {
				at(job.notBefore)
			}
			if due, ok := c.reclaimDue(job); ok && now.Before(due) {
				at(due)
			} else if ok {
				c.reclaims[id] = time.Time{}
				c.fx.gc = append(c.fx.gc, id)
			}
		}
		slices.Sort(c.fx.gc)
	}
	c.fx.quiet = c.draining && !slices.ContainsFunc(c.slots, func(sl slot) bool { return sl.job != nil })
	for _, at := range c.reclaims {
		c.fx.quiet = c.fx.quiet && !at.IsZero()
	}
	return c.fx
}

// dispatch starts the oldest eligible job on each idle worker. The
// start is journaled before the process exists, so a crash between
// the two at worst leaves a Running job with no process, which the
// restart requeues; a job never runs twice at once.
func (c *supervisor) dispatch(now time.Time) {
	for w := range c.slots {
		if c.slots[w].job != nil {
			continue
		}
		var pick *Job
		for _, job := range c.jobs {
			if job.Eligible(now) && (pick == nil || job.SubmittedAt < pick.SubmittedAt ||
				(job.SubmittedAt == pick.SubmittedAt && job.ID < pick.ID)) {
				pick = job
			}
		}
		if pick == nil {
			return
		}
		c.apply(Record{Op: OpStart, Job: pick.ID, Attempt: pick.Attempts + 1}, now)
		c.slots[w] = slot{job: pick}
		c.fx.spawn = append(c.fx.spawn, spawn{worker: w, job: pick.ID, attempt: pick.Attempts + 1})
	}
}

// reclaimDue reports when a terminal job's intermediates fall due for
// reclaim: Retain after it finished, or a failed reclaim's retry.
func (c *supervisor) reclaimDue(job *Job) (time.Time, bool) {
	at, tried := c.reclaims[job.ID]
	if !job.State.Terminal() || job.GCed || job.FinishedAt == 0 || tried && at.IsZero() {
		return time.Time{}, false
	}
	due := time.Unix(0, job.FinishedAt).Add(c.cfg.Retain)
	if at.After(due) {
		due = at
	}
	return due, true
}

// classify maps how an attempt ended to the record the supervisor
// journals (Job left for the caller) and whether the job waits out a
// backoff before its next attempt. drained says the supervisor sent
// the drain SIGTERM; killed, when non-empty, why it sent SIGKILL;
// waitErr is the child's exit. Only genuine failures are charged:
// once a drain has signalled the child, no exit is the job's fault —
// not a missed checkpoint deadline, and not a death by the signal's
// default disposition before the runner installed its handler.
func classify(drained bool, killed string, waitErr error) (rec Record, backoff bool) {
	code := -1 // unknown, or a death by signal
	if ee := (*exec.ExitError)(nil); errors.As(waitErr, &ee) {
		code = ee.ExitCode()
	}
	switch {
	case killed != "" && drained:
		// Couldn't checkpoint in time: the manifest still resumes from
		// the last phase.
		return Record{Op: OpRequeue, Reason: "drain (killed: " + killed + ")"}, false
	case killed != "":
		return Record{Op: OpFail, Err: killed}, true
	case waitErr == nil:
		return Record{Op: OpDone}, false
	case code == ExitInterrupted:
		return Record{Op: OpRequeue, Reason: "interrupted: checkpointed"}, false
	case code == ExitBusy:
		return Record{Op: OpRequeue, Reason: "workdir busy"}, true
	case drained:
		return Record{Op: OpRequeue, Reason: "drain (" + waitErr.Error() + ")"}, false
	default:
		return Record{Op: OpFail, Err: waitErr.Error()}, true
	}
}
