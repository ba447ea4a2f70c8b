package cluster

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/pairgen"
	"repro/internal/par"
	"repro/internal/pgst"
	"repro/internal/seq"
	"repro/internal/suffixtree"
)

// The worker core is tested the way the master core is: a recording
// fake stands in for the runtime, the master's side of the exchange is
// scripted, and the GST portions are small real trees — so no machine
// runs, nothing sleeps, and every pair the core should report is known
// in advance.

// workerFixture is a small store with its serial GST cut into segment
// forests, dealt round-robin to the owner ranks 1..3 of a 4-rank
// machine, each forest with a made-up modeled cost.
type workerFixture struct {
	store   *seq.Store
	cfg     Config
	forests map[int][]*suffixtree.Tree
	costs   map[int][]float64
	firsts  map[int][]int          // where each forest's pairs start in want
	want    map[int][]pairgen.Pair // the pair stream of each owner rank
}

const workerTestSize = 4

var workerFx = sync.OnceValue(func() *workerFixture {
	st, _ := islandStore(21, 2, 1200, 40)
	fx := &workerFixture{
		store: st, cfg: testConfig().withDefaults(),
		forests: map[int][]*suffixtree.Tree{}, costs: map[int][]float64{}, firsts: map[int][]int{}, want: map[int][]pairgen.Pair{},
	}
	seg := 0
	pgst.SweepSerial(st, pgst.Config{W: fx.cfg.W, MinLen: fx.cfg.Psi, SpillBytes: 24 << 10}, func(t *suffixtree.Tree) bool {
		r := 1 + seg%(workerTestSize-1)
		fx.forests[r] = append(fx.forests[r], t.Clone())
		fx.costs[r] = append(fx.costs[r], 1e-3*float64(seg+1))
		fx.firsts[r] = append(fx.firsts[r], len(fx.want[r]))
		pairgen.Generate(t, fx.pairgenConfig(), func(p pairgen.Pair) bool {
			fx.want[r] = append(fx.want[r], p)
			return true
		})
		seg++
		return true
	})
	return fx
})

func (fx *workerFixture) pairgenConfig() pairgen.Config {
	return pairgen.Config{Psi: fx.cfg.Psi, NumFragments: fx.store.N(), DuplicateElimination: fx.cfg.DuplicateElimination}
}

// source is the fixture's stand-in for pgst.Local.Sweep: each forest
// is one segment of one sub-forest.
func (fx *workerFixture) source(_ seq.Seqs, r int, add func(*suffixtree.Tree), end func(float64) bool) bool {
	for i, t := range fx.forests[r] {
		add(t)
		if !end(fx.costs[r][i]) {
			return false
		}
	}
	return true
}

func (fx *workerFixture) sweepCost(r int) (sum float64) {
	for _, c := range fx.costs[r] {
		sum += c
	}
	return sum
}

// workerSim drives one worker core through runWorker's loop — report,
// align, generate ahead, take — with a scripted master, and checks the
// Fig. 8 invariants at every step against what the fixture says the
// streams hold.
type workerSim struct {
	t    testing.TB
	fx   *workerFixture
	w    *worker
	port *fakePort

	expected []pairgen.Pair // the covered portions' streams, concatenated in cover order
	reported int            // how many of them reports have carried
	covered  []int
	due      []alignResult // what the next report's results must be
	leased   []pairgen.Pair
	aligned  int
	cells    int64
	seen     int   // port.events checked so far
	open     int64 // the phase span open at seen, or -1
	traced   int   // pairs traced as aligned up to seen
}

func newWorkerSim(t testing.TB, batchSize, newPairsBuf int) *workerSim {
	fx := workerFx()
	if len(fx.want[1]) < 20 || len(fx.want[2]) < 20 || len(fx.forests[1]) < 2 {
		t.Fatalf("weak fixture: %d/%d/%d pairs, %d forests for rank 1",
			len(fx.want[1]), len(fx.want[2]), len(fx.want[3]), len(fx.forests[1]))
	}
	port := &fakePort{}
	run := &parallelRun{store: fx.store, cfg: fx.cfg, mx: newClusterMetrics(nil),
		pcfg: ParallelConfig{BatchSize: batchSize, NewPairsBuf: newPairsBuf}}
	s := &workerSim{t: t, fx: fx, port: port, open: -1,
		w: &worker{run: run, port: port, sweep: fx.source, rank: 1, size: workerTestSize, r: batchSize}}
	s.cover(1)
	s.w.cover(1)
	return s
}

func (s *workerSim) cover(r int) {
	s.covered = append(s.covered, r)
	s.expected = append(s.expected, s.fx.want[r]...)
}

// report takes the core's next report and checks it: new pairs are the
// next of the expected stream, at most r of them; results are the batch
// leased by the last take, in order, fragments mod n, with the verdicts
// AlignPair gives; passive is set exactly when nothing is left.
func (s *workerSim) report() report {
	s.t.Helper()
	r := s.w.r
	rep, err := decodeReport(s.w.report(), s.fx.store.N())
	if err != nil {
		s.t.Fatalf("the core's report does not decode: %v", err)
	}
	if len(rep.pairs) > max(r, 0) {
		s.t.Fatalf("report carries %d new pairs, the master asked for %d", len(rep.pairs), r)
	}
	if end := s.reported + len(rep.pairs); end > len(s.expected) || !slices.Equal(rep.pairs, s.expected[s.reported:end]) {
		s.t.Fatalf("report's pairs are not the next %d of the stream (at %d of %d)", len(rep.pairs), s.reported, len(s.expected))
	}
	s.reported += len(rep.pairs)
	if !slices.Equal(rep.results, s.due) {
		s.t.Fatalf("report's results %v, want the last leased batch's %v", rep.results, s.due)
	}
	s.due = nil
	if rep.passive != (s.w.exhausted() && s.w.buffered.Len() == 0) {
		s.t.Fatalf("passive %v with exhausted %v and %d buffered", rep.passive, s.w.exhausted(), s.w.buffered.Len())
	}
	if rep.passive && s.reported != len(s.expected) {
		s.t.Fatalf("passive after %d of %d pairs", s.reported, len(s.expected))
	}
	if len(rep.pairs) < r && !rep.passive {
		s.t.Fatalf("report ran dry (%d of %d pairs) without going passive", len(rep.pairs), r)
	}
	s.checkCharges()
	return rep
}

// wait is the overlap of the master's turn: align the leased batch,
// then generate ahead until the reply has "arrived" after probes polls.
func (s *workerSim) wait(probes int) {
	s.t.Helper()
	n := int32(s.fx.store.N())
	for _, p := range s.leased {
		accepted, cells := AlignPair(s.fx.store, p, s.fx.cfg)
		s.due = append(s.due, alignResult{fa: p.ASid % n, fb: p.BSid % n, accepted: accepted})
		s.cells += cells
	}
	if got := s.w.align(); got != len(s.leased) {
		s.t.Fatalf("aligned %d pairs, leased %d", got, len(s.leased))
	}
	s.aligned += len(s.leased)
	s.leased = nil
	s.w.generateAhead(func() bool { probes--; return probes < 0 })
	buffered := s.w.buffered.buf[s.w.buffered.head:]
	if len(buffered) > s.w.run.pcfg.NewPairsBuf {
		s.t.Fatalf("%d pairs buffered, NewPairsBuf %d", len(buffered), s.w.run.pcfg.NewPairsBuf)
	}
	if end := s.reported + len(buffered); end > len(s.expected) || !slices.Equal(buffered, s.expected[s.reported:end]) {
		s.t.Fatalf("buffer does not hold the next %d pairs of the stream", len(buffered))
	}
	s.checkEvents()
	s.checkCharges()
}

// take hands the core a work message. A refused one must leave the core
// and the world exactly as they were.
func (s *workerSim) take(data []byte, wk work) error {
	s.t.Helper()
	r, streams, events, charged := s.w.r, len(s.w.streams), len(s.port.events), s.port.charged
	err := s.w.take(data)
	if err != nil {
		if s.w.r != r || len(s.w.streams) != streams || len(s.w.leased) != 0 || len(s.port.events) != events || s.port.charged != charged {
			s.t.Fatalf("refused message (%v) changed the core or reached the port", err)
		}
		return err
	}
	s.leased = wk.batch
	for _, d := range wk.adopt {
		s.cover(d)
	}
	if len(s.w.streams) != len(s.covered) {
		s.t.Fatalf("%d streams for coverage %v", len(s.w.streams), s.covered)
	}
	s.checkCharges()
	return nil
}

func (s *workerSim) send(wk work) {
	s.t.Helper()
	if err := s.take(encodeWork(wk), wk); err != nil {
		s.t.Fatalf("work %+v refused: %v", wk, err)
	}
}

// checkEvents: phase spans do not nest and are all closed between entry
// points, and every aligned pair was traced.
func (s *workerSim) checkEvents() {
	s.t.Helper()
	for _, e := range s.port.events[s.seen:] {
		switch e.kind {
		case obs.EvPhaseEnter:
			if s.open >= 0 {
				s.t.Fatalf("phase %d entered inside phase %d", e.a, s.open)
			}
			s.open = e.a
		case obs.EvPhaseExit:
			if s.open != e.a {
				s.t.Fatalf("phase %d exited inside phase %d", e.a, s.open)
			}
			s.open = -1
		case obs.EvPairAligned:
			s.traced += int(e.a)
		}
	}
	s.seen = len(s.port.events)
	if s.open >= 0 || s.traced != s.aligned {
		s.t.Fatalf("phase %d left open; %d pairs traced as aligned, %d aligned", s.open, s.traced, s.aligned)
	}
}

// checkCharges: the rank has been charged for exactly the pairs it has
// pulled, the cells it has aligned and the forests its streams have
// entered. A stream enters a forest in the pull that takes the forest's
// first pair, so it has entered every forest up to the one holding its
// last pulled pair, and all of them once it is exhausted.
func (s *workerSim) checkCharges() {
	s.t.Helper()
	pulled := s.reported + s.w.buffered.Len()
	want := float64(pulled)*costPair + float64(s.cells)*costCell
	for i, r := range s.covered {
		k := min(pulled, len(s.fx.want[r]))
		pulled -= k
		for j, first := range s.fx.firsts[r] {
			if i < s.w.cur || first < k {
				want += s.fx.costs[r][j]
			}
		}
	}
	if math.Abs(s.port.charged-want) > 1e-9*want {
		s.t.Fatalf("charged %.12g modeled seconds, want %.12g (pairs + cells + forests entered)", s.port.charged, want)
	}
}

// finish plays a faithful master until the core has reported passive
// and owes no results.
func (s *workerSim) finish() {
	s.t.Helper()
	for i := 0; ; i++ {
		if i > 10000 {
			s.t.Fatal("the core never went passive")
		}
		rep := s.report()
		s.wait(3)
		if rep.passive && len(s.due) == 0 {
			return
		}
		s.send(work{r: 64})
	}
}

// Reports carry the stream in order, the buffer first: what was
// generated ahead during a wait leads the next report, and the request
// size of the last reply caps it.
func TestWorkerReportsStreamInOrder(t *testing.T) {
	s := newWorkerSim(t, 5, 7)
	defer s.w.close()
	if rep := s.report(); len(rep.pairs) != 5 || rep.passive {
		t.Fatalf("first report: %d pairs, passive %v; want the initial request size", len(rep.pairs), rep.passive)
	}
	s.wait(3)
	if s.w.buffered.Len() != 3 {
		t.Fatalf("%d pairs generated ahead in 3 polls", s.w.buffered.Len())
	}
	s.send(work{r: 2})
	if rep := s.report(); len(rep.pairs) != 2 || s.w.buffered.Len() != 1 {
		t.Fatalf("r = 2 against 3 buffered: %d reported, %d still buffered", len(rep.pairs), s.w.buffered.Len())
	}
	s.wait(100)
	if s.w.buffered.Len() != 7 {
		t.Fatalf("%d pairs buffered with the reply out for long, NewPairsBuf 7", s.w.buffered.Len())
	}
	s.send(work{r: 0})
	if rep := s.report(); len(rep.pairs) != 0 || rep.passive {
		t.Fatalf("r = 0: %d pairs, passive %v", len(rep.pairs), rep.passive)
	}
	s.wait(0)
	s.send(work{r: 12}) // 7 from the buffer, 5 from the stream
	if rep := s.report(); len(rep.pairs) != 12 {
		t.Fatalf("r = 12: %d pairs", len(rep.pairs))
	}
	s.wait(0)
	s.send(work{r: 8})
	s.finish()
	if s.port.count(obs.EvPhaseEnter) == 0 {
		t.Fatal("no phase span traced")
	}
}

// A leased batch is aligned during the next wait and its results ride
// on the report after that, one report behind the reply that carried it.
func TestWorkerAlignsLeasedBatch(t *testing.T) {
	s := newWorkerSim(t, 6, 4)
	defer s.w.close()
	first := s.report()
	s.wait(0)
	s.send(work{r: 1, batch: first.pairs[:4]})
	if rep := s.report(); len(rep.results) != 0 {
		t.Fatalf("results %v reported before the batch was aligned", rep.results)
	}
	s.wait(0)
	if len(s.due) != 4 {
		t.Fatal("nothing due after aligning a leased batch")
	}
	rc := first.pairs[0] // the same anchor on the fragment's other strand
	rc.ASid = (rc.ASid + int32(s.fx.store.N())) % int32(s.fx.store.NumSeqs())
	s.send(work{r: 1, batch: []pairgen.Pair{rc}})
	s.report() // checks the four results
	s.wait(0)
	if len(s.due) != 1 || s.due[0].fa != first.pairs[0].ASid%int32(s.fx.store.N()) {
		t.Fatalf("strand id not reduced to its fragment: %+v", s.due)
	}
	s.send(work{r: 8})
	s.finish()
}

// Adoption clears passive: the dead rank's portion queues behind the
// streams already covered, is swept on demand, and the sweep is charged
// to this rank.
func TestWorkerAdoptionClearsPassive(t *testing.T) {
	s := newWorkerSim(t, 64, 16)
	defer s.w.close()
	s.finish()
	own, cells := s.port.charged, s.cells
	s.send(work{r: 64, adopt: []int{3, 2}})
	if s.port.count(obs.EvPhaseEnter) == 0 || s.port.events[len(s.port.events)-1] != (tracedEvent{obs.EvPhaseExit, obs.PhaseRecover, 0, 0}) {
		t.Fatal("adoption not traced as a recover span")
	}
	if rep := s.report(); rep.passive || len(rep.pairs) == 0 {
		t.Fatalf("after adopting: passive %v, %d pairs", rep.passive, len(rep.pairs))
	}
	s.wait(0)
	s.send(work{r: 64})
	s.finish()
	want := s.fx.sweepCost(3) + s.fx.sweepCost(2) +
		float64(len(s.fx.want[3])+len(s.fx.want[2]))*costPair + float64(s.cells-cells)*costCell
	if got := s.port.charged - own; math.Abs(got-want) > 1e-9*want {
		t.Fatalf("adoption charged %.12g, want the two sweeps, their pairs and the cells aligned since: %.12g", got, want)
	}
	if !slices.Equal(s.covered, []int{1, 3, 2}) {
		t.Fatalf("covered %v", s.covered)
	}
}

// A sweep that panics — how diskstore's Seq fails on a read error, and
// a budgeted sweep on a run-file I/O error — runs inside the worker's
// pull, so it fails the worker's rank through par's per-rank recover
// instead of killing the process.
func TestWorkerSweepPanicFailsItsRank(t *testing.T) {
	fx := workerFx()
	const msg = "diskstore: read bases of fragment 3: injected"
	_, exits := par.RunStatus(par.Config{Ranks: 1}, func(c *par.Comm) {
		run := &parallelRun{store: fx.store, cfg: fx.cfg, mx: newClusterMetrics(nil),
			pcfg: ParallelConfig{BatchSize: 4, NewPairsBuf: 4}}
		w := &worker{run: run, port: c, rank: 0, size: 1, r: 4,
			sweep: func(seq.Seqs, int, func(*suffixtree.Tree), func(float64) bool) bool { panic(msg) }}
		defer w.close()
		w.cover(0)
		w.report()
	})
	if want := (par.Exit{Reason: "panic: " + msg}); exits[0] != want {
		t.Fatalf("rank exit %+v, want %+v", exits[0], want)
	}
}

// badWorks are well-formed-looking work messages a worker must refuse:
// each names a sequence, position or rank the run does not have.
func badWorks(fx *workerFixture) map[string][]byte {
	good := fx.want[1][0]
	with := func(edit func(*pairgen.Pair)) []byte {
		p := good
		edit(&p)
		return encodeWork(work{r: 4, batch: []pairgen.Pair{good, p}})
	}
	return map[string][]byte{
		"sid and pos huge":     with(func(p *pairgen.Pair) { p.ASid, p.APos, p.MatchLen = 1<<30, 1<<30, -7 }),
		"sid = 2n":             with(func(p *pairgen.Pair) { p.BSid = int32(fx.store.NumSeqs()) }),
		"negative match":       with(func(p *pairgen.Pair) { p.MatchLen = -7 }),
		"zero match":           with(func(p *pairgen.Pair) { p.MatchLen = 0 }),
		"negative pos":         with(func(p *pairgen.Pair) { p.BPos = -1 }),
		"match past the end":   with(func(p *pairgen.Pair) { p.APos = int32(fx.store.SeqLen(int(p.ASid))) - p.MatchLen + 1 }),
		"adopt out of range":   encodeWork(work{r: 4, adopt: []int{-3, 1 << 40}}),
		"adopt the master":     encodeWork(work{r: 4, adopt: []int{2, 0}}),
		"adopt rank = size":    encodeWork(work{r: 4, adopt: []int{workerTestSize}}),
		"adopt itself":         encodeWork(work{r: 4, adopt: []int{1}}),
		"request overflows":    encodeWork(work{r: -1}),
		"explicit empty adopt": append(encodeWork(work{r: 4}), 0),
		"truncated":            encodeWork(work{r: 4, batch: []pairgen.Pair{good}})[:4],
	}
}

// A work message that would make AlignPair or the forest source index
// out of range is refused whole, whatever else it carries, and the
// refusal changes nothing.
func TestWorkerRefusesBadWork(t *testing.T) {
	for name, data := range badWorks(workerFx()) {
		t.Run(strings.ReplaceAll(name, " ", "-"), func(t *testing.T) {
			s := newWorkerSim(t, 4, 4)
			defer s.w.close()
			s.report()
			s.wait(2)
			if err := s.take(data, work{}); err == nil {
				t.Fatal("accepted")
			}
		})
	}
	// The bounds themselves are fine.
	s := newWorkerSim(t, 4, 4)
	defer s.w.close()
	p := s.fx.want[1][0]
	p.APos = int32(s.fx.store.SeqLen(int(p.ASid))) - p.MatchLen
	s.send(work{r: 0, batch: []pairgen.Pair{p}, adopt: []int{workerTestSize - 1}})
}

// A FuzzWorkerStep script is a header byte — BatchSize − 1 in the low
// nibble, log₂ NewPairsBuf in the high one (mod 8) — followed by (a, b)
// steps, one turn of runWorker's loop each: a's high nibble is how many
// pairs get generated ahead before the reply arrives, its low nibble
// the reply's request size; b's low three bits size the batch the reply
// leases (drawn from pairs already reported), bit 3 makes it adopt the
// next dead rank, and a high nibble of 0xf replaces it with bad work
// b&7, which must be refused and ends the run.
func FuzzWorkerStep(f *testing.F) {
	f.Add([]byte{0x23, 0x34, 0x02, 0x08, 0x0b, 0xf2, 0x00})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		s := newWorkerSim(t, 1+int(script[0]&0xf), 1<<(script[0]>>4&7))
		defer s.w.close()
		bad := badWorks(s.fx)
		names := make([]string, 0, len(bad))
		for name := range bad {
			names = append(names, name)
		}
		slices.Sort(names)
		adoptable := []int{3, 2}
		for i := 1; i+1 < len(script); i += 2 {
			a, b := script[i], script[i+1]
			s.report()
			s.wait(int(a >> 4))
			if b>>4 == 0xf {
				if s.take(bad[names[int(b&7)%len(names)]], work{}) == nil {
					t.Fatalf("bad work %q accepted", names[int(b&7)%len(names)])
				}
				return
			}
			wk := work{r: int(a & 0xf)}
			for k := 0; k < int(b&7) && s.reported > 0; k++ {
				wk.batch = append(wk.batch, s.expected[(i*7+k*3)%s.reported])
			}
			if b&8 != 0 && len(adoptable) > 0 {
				wk.adopt, adoptable = adoptable[:1], adoptable[1:]
			}
			s.send(wk)
		}
		s.finish()
	})
}
