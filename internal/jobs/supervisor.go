package jobs

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/launch"
)

// supervise is one worker's loop: pick the oldest eligible queued job,
// run an attempt, classify the outcome, repeat. An idle worker sleeps
// until a submission wakes it, or until the poll tick, which is only
// for jobs whose retry backoff expires. Workers exit when the server
// starts draining.
func (s *Server) supervise(w int) {
	defer s.wg.Done()
	for {
		select {
		case <-s.draining:
			return
		default:
		}
		job := s.claim()
		if job == nil {
			select {
			case <-s.draining:
				return
			case <-s.wake:
			case <-time.After(pollInterval):
			}
			continue
		}
		s.runAttempt(w, job)
	}
}

// pollInterval is how often an idle worker looks for a job whose
// backoff has expired; a variable so a test can stretch it.
var pollInterval = 50 * time.Millisecond

// claim picks the oldest eligible queued job, journals either its
// start or its quarantine, and returns it in Running state (nil when
// nothing is runnable). The journal write happens under the server
// lock BEFORE the subprocess exists, so a crash between the two at
// worst re-adopts a Running job with no process — which restart
// requeues — never runs a job twice concurrently.
func (s *Server) claim() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	var pick *Job
	for _, job := range s.jobs {
		if !job.Eligible(now) {
			continue
		}
		if pick == nil || job.SubmittedAt < pick.SubmittedAt ||
			(job.SubmittedAt == pick.SubmittedAt && job.ID < pick.ID) {
			pick = job
		}
	}
	if pick == nil {
		return nil
	}
	if pick.Attempts >= s.cfg.MaxAttempts {
		s.applyLocked(Record{
			Op: OpQuarantine, Job: pick.ID,
			Err: fmt.Sprintf("retry budget exhausted after %d attempts: %s", pick.Attempts, pick.Err),
		})
		s.logf("job %s quarantined after %d attempts", pick.ID, pick.Attempts)
		return nil
	}
	s.applyLocked(Record{Op: OpStart, Job: pick.ID, Attempt: pick.Attempts + 1})
	return pick
}

// runAttempt spawns the runner subprocess for one attempt and journals
// the outcome. Deadline overruns and quota breaches SIGKILL the child
// and charge the attempt; drain SIGTERMs it and requeues uncharged.
func (s *Server) runAttempt(w int, job *Job) {
	dir := s.jobDir(job.ID)
	cmd, err := launch.SelfExec([]string{runnerDirEnv + "=" + dir})
	if err != nil {
		s.finish(job, Record{Op: OpFail, Job: job.ID, Err: "spawn: " + err.Error()})
		return
	}
	logf, err := os.OpenFile(filepath.Join(dir, runnerLogFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err == nil {
		fmt.Fprintf(logf, "--- attempt %d ---\n", job.Attempts+1)
		cmd.Stdout = logf
		cmd.Stderr = logf
		defer logf.Close()
	}
	if err := cmd.Start(); err != nil {
		s.finish(job, Record{Op: OpFail, Job: job.ID, Err: "spawn: " + err.Error()})
		return
	}
	s.setPID(job, cmd.Process.Pid)
	s.logf("worker %d: job %s attempt %d started (pid %d)", w, job.ID, job.Attempts+1, cmd.Process.Pid)

	waitc := make(chan error, 1)
	go func() { waitc <- cmd.Wait() }()

	deadline := time.NewTimer(s.cfg.AttemptDeadline)
	defer deadline.Stop()
	quota := time.NewTicker(quotaInterval)
	defer quota.Stop()

	var waitErr error
	var killed string // non-empty when the supervisor killed the child
	var drained bool
wait:
	for {
		select {
		case waitErr = <-waitc:
			break wait
		case <-deadline.C:
			killed = fmt.Sprintf("attempt deadline %s exceeded", s.cfg.AttemptDeadline)
			_ = cmd.Process.Signal(syscall.SIGKILL)
			waitErr = <-waitc
			break wait
		case <-quota.C:
			if s.cfg.QuotaBytes > 0 {
				if sz := dirSize(dir); sz > s.cfg.QuotaBytes {
					killed = fmt.Sprintf("workdir quota exceeded (%d > %d bytes)", sz, s.cfg.QuotaBytes)
					_ = cmd.Process.Signal(syscall.SIGKILL)
					waitErr = <-waitc
					break wait
				}
			}
		case <-s.draining:
			// Graceful drain: ask for a phase-boundary checkpoint, then
			// escalate to SIGKILL if the child overstays.
			drained = true
			_ = cmd.Process.Signal(syscall.SIGTERM)
			select {
			case waitErr = <-waitc:
			case <-time.After(s.cfg.DrainTimeout):
				killed = "drain timeout"
				_ = cmd.Process.Signal(syscall.SIGKILL)
				waitErr = <-waitc
			}
			break wait
		}
	}

	rec, backoff := classify(drained, killed, waitErr)
	rec.Job = job.ID
	s.finish(job, rec)
	if backoff {
		s.backoffJob(job)
	}
	switch rec.Op {
	case OpDone:
		s.logf("worker %d: job %s done", w, job.ID)
	case OpFail:
		s.logf("worker %d: job %s attempt failed: %s", w, job.ID, rec.Err)
	}
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
	code := exitCode(waitErr)
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

// finish journals an attempt outcome and clears the PID. Journal
// append failures here are fatal for the server's guarantees, so they
// panic the worker rather than silently diverge memory from disk.
func (s *Server) finish(job *Job, r Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job.PID = 0
	s.applyLocked(r)
}

// backoffJob sets the in-memory retry gate from the shared policy.
func (s *Server) backoffJob(job *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.cfg.Backoff.Delay(job.Attempts+job.Requeues, s.rng)
	job.notBefore = s.now().Add(d)
}

func (s *Server) setPID(job *Job, pid int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job.PID = pid
}

// exitCode extracts the process exit status (-1 when unknown/signal).
func exitCode(err error) int {
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	return -1
}

const quotaInterval = 250 * time.Millisecond

// dirSize walks dir summing regular-file sizes (best effort).
func dirSize(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}
