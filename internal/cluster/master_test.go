package cluster

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pairgen"
	"repro/internal/unionfind"
)

// The master core is tested without a machine: a recording fake stands
// in for the runtime and every instant is an explicit time.Time.

type sentMsg struct {
	dst, tag int
	data     []byte
}

type tracedEvent struct {
	kind    obs.Kind
	a, b, n int64
}

type fakePort struct {
	sends   []sentMsg
	events  []tracedEvent
	charged float64
	dead    map[int]bool // what the runtime would answer to RankDead
}

func (p *fakePort) Send(dst, tag int, data []byte) {
	p.sends = append(p.sends, sentMsg{dst, tag, data})
}
func (p *fakePort) ChargeCompute(sec float64) { p.charged += sec }
func (p *fakePort) TraceEvent(k obs.Kind, a, b, n int64) {
	p.events = append(p.events, tracedEvent{k, a, b, n})
}
func (p *fakePort) RankDead(r int) bool { return p.dead[r] }

// take returns the messages sent since the last take.
func (p *fakePort) take() []sentMsg {
	out := p.sends
	p.sends = nil
	return out
}

func (p *fakePort) count(k obs.Kind) int {
	n := 0
	for _, e := range p.events {
		if e.kind == k {
			n++
		}
	}
	return n
}

const (
	testFragments = 24
	testLease     = time.Second
)

var t0 = time.Date(2006, 4, 25, 0, 0, 0, 0, time.UTC)

func testPcfg() ParallelConfig {
	return ParallelConfig{BatchSize: 4, MaxPending: 64, LeaseTimeout: testLease}
}

func newTestMaster(size int, survivable bool, pcfg ParallelConfig) (*master, *fakePort) {
	port := &fakePort{dead: map[int]bool{}}
	return newMaster(port, size, testFragments, survivable, pcfg, newClusterMetrics(nil), t0), port
}

// pr is the pair (a, b) tagged with a serial number in APos, a field
// the master never reads.
func pr(a, b, id int) pairgen.Pair {
	return pairgen.Pair{ASid: int32(a), BSid: int32(b), APos: int32(id), MatchLen: 20}
}

// resultsFor is the AR list a worker reports for batch under the
// alignment oracle accept.
func resultsFor(batch []pairgen.Pair, accept func(pairgen.Pair) bool) []alignResult {
	var out []alignResult
	for _, p := range batch {
		out = append(out, alignResult{fa: p.ASid % testFragments, fb: p.BSid % testFragments, accepted: accept(p)})
	}
	return out
}

func always(pairgen.Pair) bool { return true }
func never(pairgen.Pair) bool  { return false }

// deliver feeds one well-formed report to the core.
func deliver(t *testing.T, m *master, w int, rep report, now time.Time) {
	t.Helper()
	if err := m.onReport(w, encodeReport(rep), now); err != nil {
		t.Fatalf("report from %d: %v", w, err)
	}
	checkCounters(t, m)
}

// checkCounters asserts the maintained counters equal a recount.
func checkCounters(t testing.TB, m *master) {
	t.Helper()
	live, active, inFlight := 0, 0, 0
	for w := 1; w < len(m.workers); w++ {
		if ws := &m.workers[w]; !ws.dead {
			live++
			inFlight += ws.expected
			if !ws.passive {
				active++
			}
		}
	}
	if m.live != live || m.active != active || m.inFlight != inFlight {
		t.Fatalf("counters live/active/inFlight = %d/%d/%d, recount %d/%d/%d",
			m.live, m.active, m.inFlight, live, active, inFlight)
	}
}

// lastWork decodes the single tagWork message among msgs sent to w.
func lastWork(t *testing.T, msgs []sentMsg, w int) work {
	t.Helper()
	var found *sentMsg
	for i := range msgs {
		if msgs[i].dst == w && msgs[i].tag == tagWork {
			if found != nil {
				t.Fatalf("two work messages to %d in %v", w, msgs)
			}
			found = &msgs[i]
		}
	}
	if found == nil {
		t.Fatalf("no work message to %d in %v", w, msgs)
	}
	wk, err := decodeWork(found.data, testFragments)
	if err != nil {
		t.Fatal(err)
	}
	return wk
}

func tags(msgs []sentMsg) string {
	var b strings.Builder
	for _, s := range msgs {
		fmt.Fprintf(&b, "%d:%d ", s.dst, s.tag)
	}
	return strings.TrimSpace(b.String())
}

// A silent live worker is fenced and reaped once its lease has run
// out — at lastHeard + lease the lease still holds — and its coverage
// travels to a survivor on that survivor's next ordinary work reply.
func TestMasterLeaseExpiry(t *testing.T) {
	m, port := newTestMaster(3, true, testPcfg())
	deliver(t, m, 1, report{pairs: []pairgen.Pair{pr(0, 1, 1), pr(2, 3, 2)}}, t0.Add(testLease/2))
	if wk := lastWork(t, port.take(), 1); len(wk.batch) != 2 || wk.r == 0 || len(wk.adopt) != 0 {
		t.Fatalf("first reply %+v", wk)
	}

	m.onSilence(t0.Add(testLease))
	if m.workers[2].dead || len(port.take()) != 0 {
		t.Fatal("worker 2 reaped at lastHeard + lease, before the lease ran out")
	}
	m.onSilence(t0.Add(testLease + time.Nanosecond))
	checkCounters(t, m)
	if got := tags(port.take()); got != "2:3" {
		t.Fatalf("lease expiry sent %q, want one done fence to worker 2", got)
	}
	if !m.workers[2].dead || m.workers[1].dead || m.st.WorkersLost != 1 {
		t.Fatalf("after expiry: dead %v/%v lost %d", m.workers[1].dead, m.workers[2].dead, m.st.WorkersLost)
	}
	if !slices.Equal(m.orphans, []int{2}) || port.count(obs.EvLeaseExpire) != 1 {
		t.Fatalf("orphans %v, %d expire events", m.orphans, port.count(obs.EvLeaseExpire))
	}

	// Adoption grace: the adopter's lease runs 3·adopted·lease longer.
	t1 := t0.Add(testLease + time.Second/2)
	deliver(t, m, 1, report{results: resultsFor([]pairgen.Pair{pr(0, 1, 1), pr(2, 3, 2)}, never)}, t1)
	wk := lastWork(t, port.take(), 1)
	if !slices.Equal(wk.adopt, []int{2}) || !slices.Equal(m.workers[1].covers, []int{1, 2}) || len(m.orphans) != 0 {
		t.Fatalf("adoption reply %+v, covers %v, orphans %v", wk, m.workers[1].covers, m.orphans)
	}
	m.onSilence(t1.Add(4 * testLease))
	if m.workers[1].dead {
		t.Fatal("adopter fired inside its adoption grace")
	}
	m.onSilence(t1.Add(4*testLease + time.Nanosecond))
	checkCounters(t, m)
	if !m.workers[1].dead || !slices.Equal(m.orphans, []int{1, 2}) {
		t.Fatalf("after grace: dead %v orphans %v", m.workers[1].dead, m.orphans)
	}
	if done, err := m.finished(); !done || err == nil {
		t.Fatalf("every worker dead with coverage orphaned: finished = %v, %v", done, err)
	}
}

// A parked worker is handed orphaned portions by the ordinary work
// message — empty batch, adopt list, fresh request size — and leaves
// the passive set.
func TestMasterParkedWorkerAdopts(t *testing.T) {
	m, port := newTestMaster(3, true, testPcfg())
	deliver(t, m, 1, report{passive: true}, t0)
	if len(port.take()) != 0 || !slices.Equal(m.parked, []int{1}) || m.active != 1 {
		t.Fatalf("passive idle worker not parked: parked %v active %d", m.parked, m.active)
	}
	port.dead[2] = true
	m.onSilence(t0)
	if len(port.take()) != 0 {
		t.Fatal("a worker the runtime reports dead needs no fence")
	}
	m.dispatch(t0)
	checkCounters(t, m)
	msgs := port.take()
	wk := lastWork(t, msgs, 1)
	if len(msgs) != 1 || len(wk.batch) != 0 || !slices.Equal(wk.adopt, []int{2}) || wk.r != testPcfg().BatchSize {
		t.Fatalf("adoption message %+v (of %d)", wk, len(msgs))
	}
	if m.workers[1].passive || len(m.parked) != 0 || m.active != 1 || m.inFlight != 1 {
		t.Fatalf("adopter passive %v parked %v active %d inFlight %d",
			m.workers[1].passive, m.parked, m.active, m.inFlight)
	}
	if want := t0.Add(3 * testLease); !m.workers[1].lastHeard.Equal(want) {
		t.Fatalf("adopter lease restarts at %v, want %v", m.workers[1].lastHeard, want)
	}
}

// A report from a worker already fired is fenced and changes nothing.
func TestMasterZombieReport(t *testing.T) {
	m, port := newTestMaster(3, true, testPcfg())
	m.onSilence(t0.Add(2 * testLease))
	port.take()
	deliver(t, m, 1, report{}, t0.Add(2*testLease)) // zombie 1
	if got := tags(port.take()); got != "1:3" {
		t.Fatalf("zombie answered with %q, want a done fence", got)
	}
	before := m.st
	deliver(t, m, 2, report{pairs: []pairgen.Pair{pr(0, 1, 1)}, passive: true}, t0.Add(3*testLease))
	if got := tags(port.take()); got != "2:3" {
		t.Fatalf("zombie answered with %q, want a done fence", got)
	}
	if m.st != before || m.pending.Len() != 0 || m.inFlight != 0 || m.workers[2].passive {
		t.Fatalf("zombie report touched the bookkeeping: %+v", m.st)
	}
}

// A reporter that died after sending has its report counted, is reaped
// and gets no reply.
func TestMasterReporterDiedAfterSending(t *testing.T) {
	m, port := newTestMaster(3, true, testPcfg())
	port.dead[2] = true
	deliver(t, m, 2, report{pairs: []pairgen.Pair{pr(0, 1, 1)}}, t0)
	if len(port.take()) != 0 {
		t.Fatal("reply leaked to a dead reporter")
	}
	if !m.workers[2].dead || m.st.Generated != 1 || m.pending.Len() != 1 || !slices.Equal(m.orphans, []int{2}) {
		t.Fatalf("dead %v generated %d pending %d orphans %v",
			m.workers[2].dead, m.st.Generated, m.pending.Len(), m.orphans)
	}
	// On a fail-stop machine the runtime is not consulted: the reply goes out.
	m, port = newTestMaster(3, false, testPcfg())
	port.dead[2] = true
	deliver(t, m, 2, report{pairs: []pairgen.Pair{pr(0, 1, 1)}}, t0)
	if got := tags(port.take()); got != "2:2" || m.workers[2].dead {
		t.Fatalf("fail-stop reply %q, dead %v", got, m.workers[2].dead)
	}
}

// A worker that reported passive dies without orphaning anything.
func TestMasterPassiveWorkerDies(t *testing.T) {
	m, port := newTestMaster(3, true, testPcfg())
	deliver(t, m, 2, report{passive: true}, t0)
	port.dead[2] = true
	m.onSilence(t0)
	checkCounters(t, m)
	if !m.workers[2].dead || len(m.orphans) != 0 || len(m.parked) != 0 {
		t.Fatalf("dead %v orphans %v parked %v", m.workers[2].dead, m.orphans, m.parked)
	}
	if done, _ := m.finished(); done {
		t.Fatal("finished with worker 1 still owing its first report")
	}
}

// With every worker dead the run is an error exactly when work is left.
func TestMasterAllWorkersDead(t *testing.T) {
	// Pending work left: worker 1 dies holding a leased batch.
	m, port := newTestMaster(2, true, testPcfg())
	deliver(t, m, 1, report{pairs: []pairgen.Pair{pr(0, 1, 1)}, passive: true}, t0)
	port.dead[1] = true
	m.onSilence(t0)
	if m.st.Requeued != 1 || m.st.Aligned != 0 {
		t.Fatalf("requeued %d aligned %d", m.st.Requeued, m.st.Aligned)
	}
	if done, err := m.finished(); !done || err == nil {
		t.Fatalf("finished = %v, %v; want an error", done, err)
	}

	// Nothing left: the only requeued pair was merged meanwhile.
	m, port = newTestMaster(3, true, testPcfg())
	deliver(t, m, 1, report{pairs: []pairgen.Pair{pr(0, 1, 1)}, passive: true}, t0)
	deliver(t, m, 2, report{pairs: []pairgen.Pair{pr(0, 1, 2)}, passive: true}, t0)
	deliver(t, m, 2, report{results: resultsFor([]pairgen.Pair{pr(0, 1, 2)}, always), passive: true}, t0)
	port.dead[1], port.dead[2] = true, true
	m.onSilence(t0)
	checkCounters(t, m)
	port.take()
	if done, err := m.finished(); !done || err != nil {
		t.Fatalf("finished = %v, %v; want a clean finish", done, err)
	}
	if m.st.Skipped != 1 || m.st.Merges != 1 || len(port.take()) != 0 {
		t.Fatalf("skipped %d merges %d", m.st.Skipped, m.st.Merges)
	}
}

// A passive worker still owing results gets an empty reply that flushes
// them out; it is parked only once it owes nothing.
func TestMasterFlushesOwedResults(t *testing.T) {
	m, port := newTestMaster(2, false, testPcfg())
	batch := []pairgen.Pair{pr(0, 1, 1)}
	deliver(t, m, 1, report{pairs: batch, passive: true}, t0)
	if wk := lastWork(t, port.take(), 1); len(wk.batch) != 1 || wk.r != 0 {
		t.Fatalf("reply %+v", wk)
	}
	deliver(t, m, 1, report{passive: true}, t0) // the batch is being aligned
	if wk := lastWork(t, port.take(), 1); len(wk.batch) != 0 || wk.r != 0 || len(m.parked) != 0 {
		t.Fatalf("flush reply %+v, parked %v", wk, m.parked)
	}
	deliver(t, m, 1, report{results: resultsFor(batch, always), passive: true}, t0)
	if len(port.take()) != 0 || !slices.Equal(m.parked, []int{1}) || !m.uf.Same(0, 1) {
		t.Fatalf("after the results: parked %v", m.parked)
	}
}

// A clean finish releases every parked worker with tagDone.
func TestMasterFinishReleasesParked(t *testing.T) {
	m, port := newTestMaster(3, false, testPcfg())
	deliver(t, m, 1, report{passive: true}, t0)
	if done, _ := m.finished(); done {
		t.Fatal("finished with a report outstanding")
	}
	deliver(t, m, 2, report{passive: true}, t0)
	m.dispatch(t0)
	if done, err := m.finished(); !done || err != nil {
		t.Fatalf("finished = %v, %v", done, err)
	}
	if got := tags(port.take()); got != "1:3 2:3" {
		t.Fatalf("release sent %q", got)
	}
}

// TestWorkerFailReportAborts: a worker that cannot decode a master
// message reports the failure instead of panicking, and a report that
// does not decode — or decodes but names a fragment or a sequence the
// run does not have — is treated the same way. A fail-stop master fences
// every live worker and returns the error; a survivable one recovers
// the reporter's state and carries on.
func TestWorkerFailReportAborts(t *testing.T) {
	bad := map[string][]byte{
		"fail":                encodeReport(report{fail: "boom"}),
		"malformed":           {0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x3f},
		"result-out-of-range": encodeReport(report{results: []alignResult{{fa: 1 << 20, accepted: true}}}),
		"pair-out-of-range":   encodeReport(report{pairs: []pairgen.Pair{{ASid: -5, BSid: 1, MatchLen: 20}}}),
	}
	batch := []pairgen.Pair{pr(0, 1, 1), pr(2, 3, 2)}
	for kind, data := range bad {
		for _, survivable := range []bool{false, true} {
			for _, passive := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/survivable=%v/passive=%v", kind, survivable, passive), func(t *testing.T) {
					m, port := newTestMaster(4, survivable, testPcfg())
					deliver(t, m, 2, report{pairs: batch, passive: passive}, t0)
					if wk := lastWork(t, port.take(), 2); len(wk.batch) != 2 || m.st.Aligned != 2 {
						t.Fatalf("setup: reply %+v", wk)
					}
					err := m.onReport(2, data, t0)
					got := tags(port.take())
					if !survivable {
						if err == nil || !strings.Contains(err.Error(), "worker 2") {
							t.Fatalf("fail-stop master returned %v", err)
						}
						if got != "1:3 2:3 3:3" {
							t.Fatalf("abort fenced %q, want every live worker", got)
						}
						return
					}
					checkCounters(t, m)
					if err != nil {
						t.Fatalf("survivable master gave up: %v", err)
					}
					// Only a worker that said it is leaving needs no fence.
					if want := map[bool]string{true: "", false: "2:3"}[kind == "fail"]; got != want {
						t.Fatalf("sent %q, want %q", got, want)
					}
					if !m.workers[2].dead || m.st.WorkersLost != 1 || m.st.Requeued != 2 || m.st.Aligned != 0 || m.pending.Len() != 2 {
						t.Fatalf("dead %v stats %+v pending %d", m.workers[2].dead, m.st, m.pending.Len())
					}
					if want := map[bool][]int{false: {2}, true: nil}[passive]; !slices.Equal(m.orphans, want) {
						t.Fatalf("orphans %v, want %v", m.orphans, want)
					}
				})
			}
		}
	}
}

// simWorker is the fuzz harness's model of one worker: what it has
// been sent, and whether it can still answer.
type simWorker struct {
	owes      bool           // a report is due (strict alternation: at most one)
	cur       []pairgen.Pair // the batch of the last reply, aligned after the next report
	ready     []pairgen.Pair // the batch aligned during the last wait: the next report's results
	covers    []int          // own portion plus every adopt list received
	exhausted bool           // all covered portions generated
	gone      bool           // killed or fenced: answers nothing new
}

// masterSim drives a master core with scripted worker behaviour and
// checks the lease invariants after every step, from the outside: what
// the harness knows comes from the messages and trace events the fake
// port recorded, not from the core's tables.
type masterSim struct {
	t       testing.TB
	m       *master
	port    *fakePort
	now     time.Time
	workers []simWorker
	fired   []bool // an EvLeaseExpire named this worker
	seen    int    // port.events consumed

	nextID    int
	generated map[int32]pairgen.Pair // by serial, from reports the master accepted
	acked     map[int32]bool         // results delivered in an accepted report
	finished  []bool                 // portion covered by an accepted passive report
	aborted   bool
}

func newMasterSim(t testing.TB, size int, survivable bool) *masterSim {
	m, port := newTestMaster(size, survivable, testPcfg())
	s := &masterSim{
		t: t, m: m, port: port, now: t0,
		workers:   make([]simWorker, size),
		fired:     make([]bool, size),
		generated: map[int32]pairgen.Pair{},
		acked:     map[int32]bool{},
		finished:  make([]bool, size),
	}
	for w := 1; w < size; w++ {
		s.workers[w] = simWorker{owes: true, covers: []int{w}}
	}
	return s
}

// accept is the alignment oracle: a function of the fragments alone, so
// a pair re-aligned after a requeue gets the same verdict.
func accept(p pairgen.Pair) bool { return (p.ASid*7+p.BSid*3)%4 == 0 }

// absorb routes what the master just sent and traced into the model,
// checking that a fired worker is sent nothing but tagDone and that no
// worker is sent work while it still owes a report.
func (s *masterSim) absorb() {
	for _, e := range s.port.events[s.seen:] {
		if e.kind == obs.EvLeaseExpire {
			s.fired[e.a] = true
		}
	}
	s.seen = len(s.port.events)
	for _, msg := range s.port.take() {
		w := &s.workers[msg.dst]
		if msg.tag == tagDone {
			w.gone = true
			continue
		}
		if msg.tag != tagWork || s.fired[msg.dst] {
			s.t.Fatalf("tag %d sent to worker %d (fired %v)", msg.tag, msg.dst, s.fired[msg.dst])
		}
		wk, err := decodeWork(msg.data, testFragments)
		if err != nil {
			s.t.Fatalf("undecodable work: %v", err)
		}
		if w.owes {
			s.t.Fatalf("work sent to worker %d, which still owes a report", msg.dst)
		}
		w.owes = !w.gone
		w.cur = wk.batch
		if len(wk.adopt) > 0 {
			w.covers = append(w.covers, wk.adopt...)
			w.exhausted = false
		}
	}
}

// report delivers w's due report the way runWorker builds it: results
// for the batch aligned during the last wait (one report behind the
// reply that carried it), fresh new pairs, passive once exhausted. Kind
// simMalformed substitutes undecodable bytes, simOutOfRange poisons the
// faithful report with a result for a fragment the run does not have,
// simFail is a worker-side protocol error.
func (s *masterSim) report(w, kind, newPairs int, exhaust bool) {
	bad, fail := kind == simMalformed || kind == simOutOfRange, kind == simFail
	sw := &s.workers[w]
	sw.owes = false
	batch := sw.ready
	sw.ready, sw.cur = sw.cur, nil
	rep := report{results: resultsFor(batch, accept)}
	if !sw.exhausted {
		for i := 0; i < newPairs; i++ {
			s.nextID++
			a := (s.nextID * 5) % testFragments
			rep.pairs = append(rep.pairs, pr(a, (a+1+s.nextID%7)%testFragments, s.nextID))
		}
		sw.exhausted = exhaust
	}
	rep.passive = sw.exhausted
	data := encodeReport(rep)
	switch {
	case kind == simMalformed:
		data = []byte{1, 0xff}
	case kind == simOutOfRange:
		rep.results = append(rep.results, alignResult{fa: 1 << 20, accepted: true})
		data = encodeReport(rep)
	case fail:
		data = encodeReport(report{fail: "worker gave up"})
	}
	if bad || fail {
		sw.gone = true
	}
	taken := !s.fired[w] && !bad && !fail
	if err := s.m.onReport(w, data, s.now); err != nil {
		if s.m.survivable || !(bad || fail) {
			s.t.Fatalf("onReport: %v", err)
		}
		s.aborted = true
		return
	}
	if !taken {
		return
	}
	for _, p := range batch {
		s.acked[p.APos] = true
	}
	for _, p := range rep.pairs {
		s.generated[p.APos] = p
	}
	if rep.passive {
		for _, g := range sw.covers {
			s.finished[g] = true
		}
	}
}

// check asserts the lease invariants.
func (s *masterSim) check() {
	m := s.m
	checkCounters(s.t, m)
	held := map[int32]int{}
	for _, p := range m.pending.buf[m.pending.head:] {
		held[p.APos]++
	}
	covered := make([]int, len(m.workers))
	for _, g := range m.orphans {
		covered[g]++
	}
	for w := 1; w < len(m.workers); w++ {
		ws := &m.workers[w]
		if ws.dead != s.fired[w] {
			s.t.Fatalf("worker %d dead %v but expire event %v", w, ws.dead, s.fired[w])
		}
		if ws.dead {
			continue
		}
		for _, b := range ws.owed {
			for _, p := range b {
				held[p.APos]++
			}
		}
		for _, g := range ws.covers {
			covered[g]++
		}
	}
	for id, n := range held {
		if _, ok := s.generated[id]; !ok || n > 1 || s.acked[id] {
			s.t.Fatalf("pair %d held %d times (generated %v, acknowledged %v)", id, n, ok, s.acked[id])
		}
	}
	for id, p := range s.generated {
		if held[id] == 0 && !s.acked[id] && !m.same(p) {
			s.t.Fatalf("pair %d %+v lost: not pending, not owed, not resolved", id, p)
		}
	}
	for g := 1; g < len(covered); g++ {
		if covered[g] > 1 || (covered[g] == 0 && !s.finished[g]) {
			s.t.Fatalf("portion %d covered %d times, finished %v", g, covered[g], s.finished[g])
		}
	}
}

// checkFinal asserts, at a clean finish, that nothing was lost: the
// partition is the closure of the accepted overlaps among the pairs
// the master received, and every portion was generated to the end.
func (s *masterSim) checkFinal() {
	want := unionfind.New(testFragments)
	for _, p := range s.generated {
		if accept(p) {
			want.Union(int(p.ASid), int(p.BSid))
		}
	}
	for id, p := range s.generated {
		if !s.acked[id] && !s.m.same(p) {
			s.t.Fatalf("clean finish with pair %d %+v never resolved", id, p)
		}
	}
	for i := 0; i < testFragments; i++ {
		for j := 0; j < i; j++ {
			if s.m.uf.Same(i, j) != want.Same(i, j) {
				s.t.Fatalf("fragments %d, %d: master same %v, closure of accepted pairs %v", i, j, s.m.uf.Same(i, j), want.Same(i, j))
			}
		}
	}
	for g := 1; g < len(s.finished); g++ {
		if !s.finished[g] {
			s.t.Fatalf("clean finish with portion %d never generated to the end", g)
		}
	}
	if s.m.pending.Len() != 0 || len(s.m.orphans) != 0 {
		s.t.Fatalf("clean finish with %d pending pairs, orphans %v", s.m.pending.Len(), s.m.orphans)
	}
}

// settle runs the part of the shell's loop that follows every event
// and reports whether the run is over.
func (s *masterSim) settle() bool {
	if s.aborted {
		sent := s.port.take()
		for w := 1; w < len(s.workers); w++ {
			if !s.port.dead[w] && !slices.ContainsFunc(sent, func(x sentMsg) bool { return x.dst == w && x.tag == tagDone }) {
				s.t.Fatalf("abort left live worker %d unfenced", w)
			}
		}
		return true
	}
	s.absorb()
	s.m.dispatch(s.now)
	s.absorb()
	s.check()
	done, err := s.m.finished() // the error exit consumes pending pairs
	s.absorb()
	if done && err == nil {
		s.checkFinal()
	}
	if done && err != nil && s.m.live != 0 {
		s.t.Fatalf("%v, with %d workers alive", err, s.m.live)
	}
	return done
}

// A FuzzMasterStep script is a header byte — ranks − 2 in the low bits,
// simSurvivable for a machine that outlives its workers — followed by
// (op, arg) steps: simOp(worker, code), then for a report the number of
// new pairs (low three bits), simExhaust when they are the last of the
// worker's portions, and simBad to turn a simMalformed, simOutOfRange
// or simFail step into the bad report; for simSilence the quarter-leases
// that pass.
const (
	simSurvivable = 0x10
	simExhaust    = 0x08
	simBad        = 0x10

	simReport     = 0
	simOutOfRange = 2
	simMalformed  = 3
	simFail       = 4
	simSilence    = 5
	simKill       = 6
)

func simOp(worker, code int) byte { return byte((worker-1)<<4 | code) }

// due lists the workers with a report to deliver.
func (s *masterSim) due() []int {
	var out []int
	for w := 1; w < len(s.workers); w++ {
		if s.workers[w].owes {
			out = append(out, w)
		}
	}
	return out
}

// FuzzMasterStep drives the master core through random sequences of
// reports, malformed and fail reports, silences and worker deaths, on
// a survivable or a fail-stop machine, checking the lease invariants
// after every step; once the script runs out the surviving workers
// finish faithfully, and the run must end — cleanly with nothing lost,
// or with the all-workers-died error.
func FuzzMasterStep(f *testing.F) {
	f.Add([]byte{1 | simSurvivable, simOp(2, simKill), 0, simOp(1, simReport), 3 | simExhaust})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		size := 2 + int(script[0]&7)
		survivable := script[0]&simSurvivable != 0
		s := newMasterSim(t, size, survivable)
		done := s.settle()
		for i := 1; i+1 < len(script) && !done; i += 2 {
			op, arg := script[i], script[i+1]
			w := 1 + int(op>>4)%(size-1)
			switch op & 7 {
			case simSilence:
				if survivable {
					s.now = s.now.Add(time.Duration(arg%8) * testLease / 4)
					s.m.onSilence(s.now)
				}
			case simKill:
				if survivable {
					s.port.dead[w] = true
					s.workers[w].gone = true
				}
			default:
				if s.workers[w].owes {
					kind := simReport
					if arg&simBad != 0 {
						kind = int(op & 7)
					}
					s.report(w, kind, int(arg&7), arg&simExhaust != 0)
				}
			}
			done = s.settle()
		}
		// Epilogue: whoever can still answer does so faithfully; when
		// nobody can, time passes.
		for step := 0; !done; step++ {
			if step > 10000 {
				t.Fatal("run did not finish")
			}
			if due := s.due(); len(due) > 0 {
				s.report(due[step%len(due)], simReport, 3, true)
			} else if survivable {
				s.now = s.now.Add(5 * testLease)
				s.m.onSilence(s.now)
			} else {
				t.Fatalf("fail-stop run stuck with %d reports in flight", s.m.inFlight)
			}
			done = s.settle()
		}
	})
}
