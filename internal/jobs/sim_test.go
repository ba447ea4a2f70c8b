package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// The supervisor simulator runs the core against a fake runner, an
// in-memory journal and a modeled clock, as the server's loops run it
// against processes, a journal file and a timer. A case is a config
// byte and a script of steps; each step is an op byte and an argument
// that picks among what that op can do right now (a step with nothing
// to do is a no-op), so any subsequence of a script is itself a case
// and a failing one shrinks by dropping steps. After the script the
// orphans and runners finish, the clock runs out every wake, and the
// end oracles run.

// Step ops.
const (
	opSubmit       = iota // a client submits a new key or a duplicate, some under disk pressure
	opAdvance             // the clock moves on; the timer ticks at each wake on the way
	opStart               // a spawned runner reports its PID, or its spawn fails
	opExit                // a running runner exits; the arg picks how
	opQuota               // a quota reading of a running attempt, over or under the cap
	opDrain               // the drain starts
	opDrainTimeout        // the clock jumps to the drain's kill instant
	opCrash               // the server dies now, or after some records of its next event
	opOrphan              // a runner orphaned by a dead server finishes
	opReclaim             // a reclaim in flight completes or fails
	numOps
)

var opWeights = [numOps]int{opSubmit: 6, opAdvance: 6, opStart: 8, opExit: 8, opQuota: 2, opDrain: 1, opDrainTimeout: 1, opCrash: 2, opOrphan: 2, opReclaim: 3}

// How a runner that was not killed exits. A hang is a runner the
// script never lets exit: only a SIGKILL ends it.
const (
	outDone        = iota
	outFail        // exit 1
	outInterrupted // exit 3: checkpointed at a phase boundary
	outBusy        // exit 4: the workdir is locked
	outSignalled   // death by a signal's default disposition
	numOutcomes
)

// deltas are the clock steps opAdvance picks from: they reach past
// the backoff, the drain timeout, the attempt deadline and retention.
var deltas = []time.Duration{time.Millisecond, 50 * time.Millisecond, 400 * time.Millisecond, 3 * time.Second, 40 * time.Second, 11 * time.Minute, 2 * time.Hour}

type step struct{ op, arg byte }

// simCase is one replayable case: the config byte and the script.
type simCase struct {
	conf  byte
	steps []step
}

func (c simCase) config() Config {
	b := int(c.conf)
	return Config{
		Workers: 1 + b%3, MaxAttempts: 1 + b/3%3, MaxQueue: 2 + b/9%5,
		AttemptDeadline: 10 * time.Minute, DrainTimeout: 30 * time.Second,
		QuotaBytes: 1 << 20, MinFreeBytes: 1 << 20, Retain: time.Hour,
	}.withDefaults()
}

func (c simCase) String() string {
	var b strings.Builder
	cfg := c.config()
	fmt.Fprintf(&b, "workers=%d attempts=%d queue=%d steps=%d:", cfg.Workers, cfg.MaxAttempts, cfg.MaxQueue, len(c.steps))
	for _, s := range c.steps {
		fmt.Fprintf(&b, " %d/%d", s.op, s.arg)
	}
	return b.String()
}

// genCase draws a case from a seed.
func genCase(seed int64) simCase {
	rng := rand.New(rand.NewSource(seed))
	c := simCase{conf: byte(rng.Intn(256))}
	total := 0
	for _, w := range opWeights {
		total += w
	}
	for n := 30 + rng.Intn(120); n > 0; n-- {
		x, op := rng.Intn(total), 0
		for x >= opWeights[op] {
			x -= opWeights[op]
			op++
		}
		c.steps = append(c.steps, step{byte(op), byte(rng.Intn(256))})
	}
	return c
}

// script encodes a case as FuzzSupervisorStep input: the config byte,
// then (op, arg) byte pairs.
func (c simCase) script() []byte {
	b := []byte{c.conf}
	for _, s := range c.steps {
		b = append(b, s.op, s.arg)
	}
	return b
}

func caseOfScript(b []byte) simCase {
	c := simCase{conf: b[0]}
	for i := 1; i+1 < len(b); i += 2 {
		c.steps = append(c.steps, step{b[i] % numOps, b[i+1]})
	}
	return c
}

// waitErrs are real wait results, one per way a runner ends, made once
// per test binary: classify reads exit codes from *exec.ExitError.
var waitErrs = sync.OnceValue(func() map[string]error {
	m := map[string]error{"spawn": errors.New("spawn: fork/exec: resource temporarily unavailable")}
	for _, s := range []string{"exit 1", "exit 3", "exit 4", "kill -TERM $$", "kill -KILL $$"} {
		m[s] = exec.Command("sh", "-c", s).Run()
	}
	return m
})

// proc is one runner process of the fake runner.
type proc struct {
	pid, gen, worker int
	job              string
	started, exited  bool
	startedAt        time.Time
	termed, killed   int  // signals received
	over             bool // its last quota reading was over the cap
}

type sim struct {
	cfg      Config
	now      time.Time
	sup      *supervisor
	gen      int      // server incarnation
	journal  []Record // what survives a crash
	procs    []*proc  // every runner ever; pid = index + 1
	slots    []*proc  // this incarnation's runners, by worker
	reclaim  []string // reclaims in flight
	wake     time.Time
	draining bool
	drainAt  time.Time
	crashIn  int // records of the next event journaled before the server dies; -1 unarmed

	keys     []string             // submitted keys, in order
	acked    map[string]string    // acknowledged key → job
	terminal map[string]State     // journaled terminal states
	gced     map[string]int       // OpGC records per job
	gated    map[string]time.Time // the earliest start after a backoff-bound exit
	failedAt map[string]time.Time // a failed reclaim's instant
	failure  string
}

func newSim(c simCase) *sim {
	s := &sim{
		cfg: c.config(), now: time.Unix(1e9, 0), crashIn: -1,
		acked: map[string]string{}, terminal: map[string]State{}, gced: map[string]int{},
	}
	s.boot()
	return s
}

func (s *sim) fail(format string, args ...any) {
	if s.failure == "" {
		s.failure = fmt.Sprintf("t=%v: ", s.now.Sub(time.Unix(1e9, 0))) + fmt.Sprintf(format, args...)
	}
}

// boot starts a server incarnation on the journal: replay, then the
// first tick. Backoff gates and reclaim retries were in memory only.
func (s *sim) boot() {
	s.gen++
	s.slots = make([]*proc, s.cfg.Workers)
	s.reclaim, s.wake, s.draining = nil, time.Time{}, false
	s.gated, s.failedAt = map[string]time.Time{}, map[string]time.Time{}
	sup, fx, err := newSupervisor(s.cfg, rand.New(rand.NewSource(int64(s.gen))), s.journal, s.now)
	if err != nil {
		s.fail("restart: %v", err)
		return
	}
	s.sup = sup
	if s.append(fx.records) {
		s.event(sup.tick(s.now))
	}
}

// crash kills the server: its runners live on as orphans, holding
// their workdirs, and the next incarnation boots on what was journaled.
func (s *sim) crash() {
	s.crashIn = -1
	s.boot()
}

// event journals an event's records and carries out its effects as
// the loops do, holding them to the oracles. It reports false when the
// server died partway.
func (s *sim) event(fx effects) bool {
	if !s.append(fx.records) {
		return false
	}
	for _, pid := range fx.term {
		s.signal(pid, syscall.SIGTERM)
	}
	for _, pid := range fx.kill {
		s.signal(pid, syscall.SIGKILL)
	}
	for _, sp := range fx.spawn {
		s.spawn(sp)
	}
	for _, id := range fx.gc {
		s.gc(id)
	}
	s.wake = fx.wake
	s.check()
	if busy := slices.ContainsFunc(s.slots, func(p *proc) bool { return p != nil }); fx.quiet != (s.draining && !busy && len(s.reclaim) == 0) {
		s.fail("quiet=%v while draining=%v with runners %v and %d reclaims", fx.quiet, s.draining, busy, len(s.reclaim))
	}
	if fx.quiet && s.failure == "" {
		s.boot() // the drained server exits; the next one starts
	}
	return true
}

// append journals records, unless the server dies partway: after an
// armed number of them, or after all of them and before the effects.
func (s *sim) append(recs []Record) bool {
	for i, r := range recs {
		if s.crashIn == i {
			s.crash()
			return false
		}
		r.Seq = uint64(len(s.journal) + 1)
		s.journal = append(s.journal, r)
		if r.Op == OpGC {
			if s.gced[r.Job]++; s.gced[r.Job] > 1 {
				s.fail("job %s reclaimed twice", r.Job)
			}
		}
	}
	if s.crashIn >= 0 && len(recs) > 0 {
		s.crash()
		return false
	}
	return true
}

func (s *sim) signal(pid int, sig syscall.Signal) {
	if pid < 1 || pid > len(s.procs) {
		s.fail("signal to unknown pid %d", pid)
		return
	}
	p := s.procs[pid-1]
	if p.gen != s.gen || p.exited || !p.started {
		s.fail("signal %v to pid %d, not a live attempt of this server", sig, pid)
		return
	}
	switch sig {
	case syscall.SIGTERM:
		p.termed++
		switch {
		case !s.draining:
			s.fail("SIGTERM to pid %d outside a drain", p.pid)
		case p.termed > 1:
			s.fail("pid %d SIGTERMed twice", p.pid)
		}
	case syscall.SIGKILL:
		p.killed++
		switch {
		case p.killed > 1:
			s.fail("pid %d SIGKILLed twice", p.pid)
		case p.termed > 0 && s.now.Before(s.drainAt.Add(s.cfg.DrainTimeout)):
			s.fail("drained pid %d SIGKILLed %v into the drain, before DrainTimeout", p.pid, s.now.Sub(s.drainAt))
		case p.termed == 0 && !p.over && s.now.Before(p.startedAt.Add(s.cfg.AttemptDeadline)):
			s.fail("pid %d SIGKILLed %v after it started, before AttemptDeadline", p.pid, s.now.Sub(p.startedAt))
		}
	}
}

func (s *sim) spawn(sp spawn) {
	job := s.sup.jobs[sp.job]
	switch {
	case s.draining:
		s.fail("job %s started while draining", sp.job)
	case sp.worker < 0 || sp.worker >= len(s.slots) || s.slots[sp.worker] != nil:
		s.fail("job %s started on worker %d, which is not idle", sp.job, sp.worker)
	case job == nil || job.State != StateRunning:
		s.fail("spawn of job %s that is not running", sp.job)
	case job.Attempts >= s.cfg.MaxAttempts:
		s.fail("job %s started with %d charged attempts of %d", sp.job, job.Attempts, s.cfg.MaxAttempts)
	case s.now.Before(s.gated[sp.job]) || s.now.Before(job.notBefore):
		s.fail("job %s started before its backoff gate", sp.job)
	}
	if s.failure != "" {
		return
	}
	for _, p := range s.slots {
		if p != nil && p.job == sp.job {
			s.fail("job %s has two live attempts", sp.job)
		}
	}
	p := &proc{pid: len(s.procs) + 1, gen: s.gen, worker: sp.worker, job: sp.job}
	s.procs = append(s.procs, p)
	s.slots[sp.worker] = p
}

func (s *sim) gc(id string) {
	job := s.sup.jobs[id]
	switch {
	case job == nil || !job.State.Terminal() || job.GCed:
		s.fail("reclaim of job %s that is not terminal or already reclaimed", id)
	case s.now.Before(time.Unix(0, job.FinishedAt).Add(s.cfg.Retain)):
		s.fail("job %s reclaimed before Retain", id)
	case s.now.Before(s.failedAt[id].Add(reclaimRetry)):
		s.fail("job %s's failed reclaim retried early", id)
	case slices.Contains(s.reclaim, id):
		s.fail("job %s reclaimed twice at once", id)
	}
	s.reclaim = append(s.reclaim, id)
}

// check holds the live state to the oracles after an event.
func (s *sim) check() {
	if s.failure != "" {
		return
	}
	jobs, byKey, err := Replay(s.journal)
	if err != nil {
		s.fail("journal does not replay: %v", err)
		return
	}
	if len(jobs) != len(s.sup.jobs) || len(byKey) != len(s.sup.byKey) {
		s.fail("replay has %d jobs, the live view %d", len(jobs), len(s.sup.jobs))
		return
	}
	for id, live := range s.sup.jobs {
		if jobs[id] == nil {
			s.fail("live job %s is not in the journal", id)
			return
		}
		a, b := *live, *jobs[id]
		a.PID, a.notBefore = 0, time.Time{}
		b.PID = 0
		if a != b || byKey[live.Key] != id {
			s.fail("job %s: live %+v, replayed %+v", id, a, b)
			return
		}
		if st, was := s.terminal[id]; was && live.State != st {
			s.fail("job %s left terminal state %s for %s", id, st, live.State)
		}
		if live.State.Terminal() {
			s.terminal[id] = live.State
			if live.State == StateQuarantined && live.Attempts != s.cfg.MaxAttempts {
				s.fail("job %s quarantined after %d charged attempts, budget %d", id, live.Attempts, s.cfg.MaxAttempts)
			}
		}
		if live.State == StateQueued && live.Attempts >= s.cfg.MaxAttempts {
			s.fail("job %s queued with its budget spent (%d charged)", id, live.Attempts)
		}
		held := 0
		for _, p := range s.slots {
			if p != nil && p.job == id {
				held++
			}
		}
		if (live.State == StateRunning) != (held == 1) || held > 1 {
			s.fail("job %s is %s with %d live attempts", id, live.State, held)
		}
		if due, ok := s.sup.reclaimDue(live); ok && !s.draining && !s.now.Before(due) {
			s.fail("job %s due for reclaim at %v is not being reclaimed", id, due.Sub(s.now))
		}
	}
	for key, id := range s.acked {
		if s.sup.byKey[key] != id {
			s.fail("acknowledged key of job %s maps to %q", id, s.sup.byKey[key])
		}
	}
	for w, p := range s.slots {
		if p == nil {
			for _, job := range s.sup.jobs {
				if !s.draining && job.Eligible(s.now) {
					s.fail("worker %d idle while job %s is eligible", w, job.ID)
				}
			}
			continue
		}
		if sl := s.sup.slots[w]; sl.job == nil || sl.job.ID != p.job {
			s.fail("worker %d runs job %s in the runner's view, not in the core's", w, p.job)
		}
		switch {
		case !p.started || p.killed > 0:
		case p.termed > 0 && !s.now.Before(s.drainAt.Add(s.cfg.DrainTimeout)):
			s.fail("pid %d outlived the drain timeout unkilled", p.pid)
		case p.termed == 0 && !s.now.Before(p.startedAt.Add(s.cfg.AttemptDeadline)):
			s.fail("pid %d outlived its deadline unkilled", p.pid)
		case s.draining && p.termed == 0:
			s.fail("pid %d running in a drain without a SIGTERM", p.pid)
		}
	}
	if !s.wake.IsZero() && !s.wake.After(s.now) {
		s.fail("wake at %v is not in the future", s.wake.Sub(s.now))
	}
}

// advance moves the clock to t, ticking the core at every wake on the
// way as the loops' timer would.
func (s *sim) advance(t time.Time) {
	for !s.wake.IsZero() && !s.wake.After(t) && s.failure == "" {
		s.now = s.wake
		s.event(s.sup.tick(s.now))
	}
	if t.After(s.now) {
		s.now = t
	}
	s.check()
}

func pick[T any](xs []T, arg byte) (T, bool) {
	var zero T
	if len(xs) == 0 {
		return zero, false
	}
	return xs[int(arg)%len(xs)], true
}

// live lists this incarnation's runners that have started and not
// exited; pending those still to report their start.
func (s *sim) live(started bool) []*proc {
	var out []*proc
	for _, p := range s.slots {
		if p != nil && p.started == started {
			out = append(out, p)
		}
	}
	return out
}

func (s *sim) orphans(job string) []*proc {
	var out []*proc
	for _, p := range s.procs {
		if p.gen != s.gen && !p.exited && (job == "" || p.job == job) {
			out = append(out, p)
		}
	}
	return out
}

func simKey(n int) string {
	h := sha256.Sum256([]byte(fmt.Sprint(n)))
	return hex.EncodeToString(h[:])
}

func (s *sim) do(st step) {
	switch st.op {
	case opSubmit:
		s.submit(st.arg)
	case opAdvance:
		s.advance(s.now.Add(deltas[int(st.arg)%len(deltas)]))
	case opStart:
		if p, ok := pick(s.live(false), st.arg); ok {
			s.start(p, st.arg >= 240)
		}
	case opExit:
		if p, ok := pick(s.live(true), st.arg); ok {
			s.exit(p, int(st.arg)/len(s.live(true))%numOutcomes)
		}
	case opQuota:
		if p, ok := pick(s.live(true), st.arg); ok {
			p.over = st.arg >= 128
			size := s.cfg.QuotaBytes / 2
			if p.over {
				size = s.cfg.QuotaBytes + 1
			}
			if s.event(s.sup.quota(p.worker, size, s.now)) && p.over && p.termed == 0 && p.killed == 0 {
				s.fail("pid %d over its quota was not killed", p.pid)
			}
		}
	case opDrain:
		if !s.draining {
			s.draining, s.drainAt = true, s.now
			s.event(s.sup.drain(s.now))
		}
	case opDrainTimeout:
		if s.draining {
			s.advance(s.drainAt.Add(s.cfg.DrainTimeout))
		}
	case opCrash:
		if st.arg&1 == 0 {
			s.crash()
		} else {
			s.crashIn = int(st.arg>>1) % 4
		}
	case opOrphan:
		if p, ok := pick(s.orphans(""), st.arg); ok {
			p.exited = true
		}
	case opReclaim:
		if id, ok := pick(s.reclaim, st.arg); ok {
			s.reclaim = slices.DeleteFunc(s.reclaim, func(x string) bool { return x == id })
			ok := st.arg < 192
			if !ok {
				s.failedAt[id] = s.now
			}
			s.event(s.sup.reclaimed(id, ok, s.now))
		}
	}
}

func (s *sim) submit(arg byte) {
	var key string
	if n := len(s.keys); arg&1 == 1 && n > 0 {
		key = s.keys[int(arg>>1)%n]
	} else {
		key = simKey(n)
		s.keys = append(s.keys, key)
	}
	free := uint64(math.MaxUint64)
	if arg >= 224 {
		free = s.cfg.MinFreeBytes - 1
	}
	active := 0
	for _, job := range s.sup.jobs {
		if !job.State.Terminal() {
			active++
		}
	}
	want := admitted
	switch {
	case s.draining:
		want = admitDraining
	case free < s.cfg.MinFreeBytes:
		want = admitPressure
	case s.sup.byKey[key] != "":
		want = admitCached
	case active >= s.cfg.MaxQueue:
		want = admitFull
	}
	got, job := s.sup.admit(key, free)
	switch {
	case got != want:
		s.fail("submission admitted as %d, want %d", got, want)
	case got == admitCached && (job == nil || job.ID != jobID(key)):
		s.fail("duplicate submission returned job %v, not %s", job, jobID(key))
	case got == admitted:
		sub, fx := s.sup.submit(key, Spec{}.withDefaults(), s.now)
		if s.event(fx) {
			s.acked[key] = sub.ID
			if sub.State != StateQueued {
				s.fail("submission answered in state %s", sub.State)
			}
		}
	}
}

// start delivers a runner's start, or the failure of its spawn.
func (s *sim) start(p *proc, spawnFails bool) {
	if spawnFails {
		s.exited(p, waitErrs()["spawn"], OpFail, true)
		return
	}
	p.started, p.startedAt = true, s.now
	s.event(s.sup.started(p.worker, p.pid, s.now))
}

// exit has runner p end, with outcome o unless something decides for
// it: a SIGKILL, or an orphan still holding the job's workdir.
func (s *sim) exit(p *proc, o int) {
	errs := waitErrs()
	drained := p.termed > 0
	charge := OpFail
	if drained {
		charge = OpRequeue
	}
	switch {
	case p.killed > 0:
		s.exited(p, errs["kill -KILL $$"], charge, !drained)
	case len(s.orphans(p.job)) > 0 || o == outBusy:
		s.exited(p, errs["exit 4"], OpRequeue, true)
	case o == outDone:
		s.exited(p, nil, OpDone, false)
	case o == outFail:
		s.exited(p, errs["exit 1"], charge, !drained)
	case o == outInterrupted:
		s.exited(p, errs["exit 3"], OpRequeue, false)
	case o == outSignalled:
		s.exited(p, errs["kill -TERM $$"], charge, !drained)
	}
}

// exited reports p's end to the core, which must journal want for its
// job first; backoff says the job must then wait out a backoff.
func (s *sim) exited(p *proc, err error, want Op, backoff bool) {
	p.exited = true
	s.slots[p.worker] = nil
	job := s.sup.jobs[p.job]
	attempts := job.Attempts
	if backoff {
		b := s.cfg.Backoff
		s.gated[p.job] = s.now.Add(time.Duration(float64(min(b.Base, b.Cap)) * (1 - b.Jitter)))
	}
	n := len(s.journal)
	if !s.event(s.sup.exited(p.worker, err, s.now)) || s.failure != "" {
		return // a crash took the record: a restart never charges
	}
	switch {
	case len(s.journal) == n || s.journal[n].Job != p.job || s.journal[n].Op != want:
		s.fail("pid %d of job %s exited (%v): journaled %v, want %s first", p.pid, p.job, err, s.journal[n:], want)
	case want == OpFail && job.Attempts != attempts+1:
		s.fail("job %s charged %d attempts for one failure", p.job, job.Attempts-attempts)
	case want != OpFail && job.Attempts != attempts:
		s.fail("job %s charged for an uncharged exit", p.job)
	}
}

// settle lets the machine finish: orphans exit, runners start and
// finish, reclaims complete and the clock runs to every wake. Then
// every accepted job must be terminal and reclaimed.
func (s *sim) settle() {
	for i := 0; s.failure == ""; i++ {
		if i > 5000 {
			s.fail("did not settle")
			return
		}
		if p, ok := pick(s.orphans(""), 0); ok {
			p.exited = true
		} else if p, ok := pick(s.live(false), 0); ok {
			s.start(p, false)
		} else if p, ok := pick(s.live(true), 0); ok {
			s.exit(p, outDone)
		} else if len(s.reclaim) > 0 {
			id := s.reclaim[0]
			s.reclaim = s.reclaim[1:]
			s.event(s.sup.reclaimed(id, true, s.now))
		} else if !s.wake.IsZero() {
			s.advance(s.wake)
		} else {
			break
		}
	}
	if s.failure != "" {
		return
	}
	for id, job := range s.sup.jobs {
		if !job.State.Terminal() || !job.GCed {
			s.fail("quiet and undrained, job %s is %s (reclaimed %v)", id, job.State, job.GCed)
		}
	}
	for key, id := range s.acked {
		if s.sup.byKey[key] != id {
			s.fail("accepted job %s is missing", id)
		}
	}
}

func runCase(c simCase) (failure string) {
	s := newSim(c)
	defer func() {
		if r := recover(); r != nil {
			failure = fmt.Sprintf("panic: %v", r)
		}
	}()
	for _, st := range c.steps {
		if s.failure != "" {
			break
		}
		s.do(st)
	}
	if s.failure == "" {
		s.settle()
	}
	return s.failure
}

// shrink drops steps greedily while the case still fails.
func shrink(c simCase) simCase {
	for n := -1; n != len(c.steps); {
		n = len(c.steps)
		for i := len(c.steps) - 1; i >= 0; i-- {
			d := simCase{conf: c.conf, steps: append(append([]step{}, c.steps[:i]...), c.steps[i+1:]...)}
			if runCase(d) != "" {
				c = d
			}
		}
	}
	return c
}

// campaign runs cases seed·10⁶ + 0 … n−1; a failure prints the seed
// and case that replay it, and the shrunk script.
func campaign(tb testing.TB, seed int64, n int) {
	for i := 0; i < n; i++ {
		c := genCase(seed*1e6 + int64(i))
		if msg := runCase(c); msg != "" {
			min := shrink(c)
			tb.Fatalf("seed %d case %d: %s\nshrunk to %s (%s)\nFuzzSupervisorStep input: %q",
				seed, i, msg, min, runCase(min), min.script())
		}
	}
}

// TestSupervisorSimCampaign is tier-1's campaign, sized to a second or
// so.
func TestSupervisorSimCampaign(t *testing.T) { campaign(t, 1, 500) }

// BenchmarkSupervisorSimCampaign runs b.N cases of the same campaign:
// make service-smoke runs 10⁴ of them under the race detector.
func BenchmarkSupervisorSimCampaign(b *testing.B) { campaign(b, 1, b.N) }

// FuzzSupervisorStep drives the core through scripted events —
// submissions, clock steps, runner starts and exits, quota readings,
// drains, crashes at record boundaries, orphans and reclaims — holding
// it to the simulator's oracles after every step and once the machine
// has settled.
func FuzzSupervisorStep(f *testing.F) {
	f.Add(genCase(0).script())
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		if msg := runCase(caseOfScript(script)); msg != "" {
			t.Fatal(msg)
		}
	})
}

// TestSubmitWakesIdleWorker: a submission that finds a worker idle
// starts in the same step, with no tick between, and so does the next
// queued job when an exit frees the worker.
func TestSubmitWakesIdleWorker(t *testing.T) {
	s := newSim(simCase{conf: 0}) // one worker
	s.do(step{opSubmit, 0})
	if s.slots[0] == nil {
		t.Fatal("submission to an idle worker did not start in its own step")
	}
	s.do(step{opSubmit, 2})
	s.do(step{opStart, 0})
	first := s.slots[0]
	s.do(step{opExit, 0}) // outDone
	if p := s.slots[0]; p == nil || p == first {
		t.Fatal("the exit that freed the worker did not start the queued job")
	}
	s.settle()
	if s.failure != "" {
		t.Fatal(s.failure)
	}
}

// TestWriteFuzzCorpus regenerates the committed FuzzSupervisorStep
// seed corpus (run explicitly with WRITE_FUZZ_CORPUS=1; skipped
// otherwise): campaign cases, and the shrunk cases by which the
// campaign caught five faults put back into the core one at a time.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate the corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzSupervisorStep")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	seeds := map[string][]byte{
		"seed-drain-exit-charged":    []byte("\xcf\x002\x02\x80\x05\xd6\x03e"),
		"seed-submit-leaves-idle":    []byte("\xcf\x002"),
		"seed-restart-keeps-running": []byte("\xcf\x002\a\x94"),
		"seed-busy-charged":          []byte("\xcf\x00v\a\x8a\x02 \x03\x05"),
		"seed-quarantine-late":       []byte("\xcf\x002\x02=\x01\xe5"),
	}
	for i := 0; i < 4; i++ {
		seeds[fmt.Sprintf("seed-campaign-%d", i)] = genCase(1e6 + int64(i)).script()
	}
	for name, script := range seeds {
		if msg := runCase(caseOfScript(script)); msg != "" {
			t.Fatalf("%s fails: %s", name, msg)
		}
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", script)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
