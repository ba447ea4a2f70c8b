// Package pgst implements the paper's parallel generalized suffix tree
// construction (Section 6). Each rank enumerates the suffixes of its
// fragment share, suffixes are sorted into w-prefix buckets and
// redistributed so every rank owns a load-balanced set of whole
// buckets, and each rank then builds its bucket subtrees depth-first —
// fetching the fragments a batch of buckets needs through two
// collective communication steps per batch, so per-rank space stays
// O(N/p) instead of O(min(N·l/p, N)). A batch is built by the one
// builder every GST goes through, suffixtree's AddKeyed, on every core,
// as a sweep (spill.go) builds its segments.
//
// Bucket-to-rank assignment uses sample sort splitters over the packed
// w-prefix keys: a bucket's suffixes all share one key, so a range
// partition of the key space keeps buckets whole while balancing
// suffix counts (the paper's load-balanced redistribution).
//
// On a survivable machine (par.Comm.Survivable: a fault plan or a
// transport) the build outlives its ranks, provided rank 0 — the
// clustering master's role — survives, and it recovers a death one way:
// by the sweep Local.Sweep and Local.Forests already run, since every
// rank holds the full store. The collectives skip dead ranks; a survivor whose
// redistribution a death severed sees it in its own exchange, keeps no
// resident tree and sweeps its own range when asked for it; a dead
// owner's range is swept by whichever rank is handed it (the clustering
// master's adoption). Nothing extra is agreed or sent, so a fail-stop
// machine keeps the paper's message pattern.
package pgst

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/seq"
	"repro/internal/suffixtree"
	"repro/internal/wire"
)

// Modeled per-operation costs, BlueGene/L-flavored (a ~700 MHz node
// spends a few nanoseconds per simple operation). Absolute values set
// the time scale; the scaling shapes come from the algorithm.
const (
	costChar = 4e-9  // per character examined (scan, pack, trie build)
	costSort = 25e-9 // per element per comparison level (n·log₂n total)
	costSuf  = 30e-9 // per suffix record handled (bucket, encode, decode)
)

// Config parameterizes construction.
type Config struct {
	// W is the bucket prefix length (paper: 11 for maize-scale data;
	// scaled down with input size here).
	W int
	// MinLen skips suffixes shorter than this (set it to ψ: shorter
	// suffixes cannot carry a qualifying maximal match).
	MinLen int
	// FirstOwner is the lowest rank that owns buckets: 0 normally, 1
	// under the master–worker clustering where rank 0 holds no tree.
	FirstOwner int
	// BatchBytes bounds the fragment bytes fetched per construction
	// batch (per-rank Θ(N/p) space); default 1 MiB.
	BatchBytes int
	// Staged selects the customized Alltoallv (p−1 pairwise exchanges)
	// for the redistribution and fetch steps. Its rendezvous rounds
	// cannot skip a dead rank, so a survivable machine always runs the
	// eager exchange.
	Staged bool
	// Seed for splitter sampling.
	Seed int64
	// SpillBytes, when positive, selects the out-of-core build: no
	// rank ever materializes its full forest. Construction only agrees
	// on splitters; the owned key range is swept later in contiguous
	// segments whose estimated resident bytes stay under this budget,
	// each segment's forest built, consumed and dropped (see spill.go).
	// The union of swept forests is identical to the in-memory build.
	// A sweep with no budget covers its whole range in one segment.
	SpillBytes int64
}

func (c Config) withDefaults() Config {
	if c.BatchBytes == 0 {
		c.BatchBytes = 1 << 20
	}
	if c.MinLen < c.W {
		c.MinLen = c.W
	}
	return c
}

// Local is one rank's part of the distributed GST. Its forests reach
// every consumer one way, through Forests.
type Local struct {
	// rank is the owner rank this Local belongs to (its range is empty
	// below FirstOwner).
	rank int
	// tree is the resident forest of the rank's own bucket range; nil for
	// a spilling build, which keeps nothing resident, and for a survivor
	// whose redistribution a death severed, which sweeps instead.
	tree *suffixtree.Tree
	// Buckets is the number of buckets this rank built.
	Buckets int
	// SuffixesOwned is the number of suffixes in this rank's buckets.
	SuffixesOwned int
	// FetchRounds is the number of batched fragment-fetch rounds.
	FetchRounds int
	// Splitters is the agreed bucket-to-rank partition of the key
	// space; every rank holds the same copy, so any survivor can
	// recompute which buckets a dead rank owned (fault recovery).
	Splitters []seq.Kmer
	// Cfg is the construction configuration after defaulting, kept so
	// a portion can be rebuilt later with identical parameters.
	Cfg Config
}

// ownerBounds partitions fragment IDs contiguously so each owner rank
// holds roughly equal base counts; bounds[i] is the first fragment of
// owner i (bounds has owners+1 entries). Every rank computes the same
// partition, so fragment ownership is an O(1)–O(log p) lookup — the
// paper's "recalling the initial distribution".
func ownerBounds(st seq.Seqs, owners int) []int {
	bounds := make([]int, owners+1)
	total := st.TotalBases()
	per := total/owners + 1
	fid, acc := 0, 0
	for r := 0; r < owners; r++ {
		bounds[r] = fid
		want := (r + 1) * per
		for fid < st.N() && acc < want {
			acc += st.SeqLen(fid)
			fid++
		}
	}
	bounds[owners] = st.N()
	return bounds
}

func ownerOf(bounds []int, fid int) int {
	// bounds is ascending; find r with bounds[r] ≤ fid < bounds[r+1].
	lo, hi := 0, len(bounds)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if bounds[mid] <= fid {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// scanOwner runs the suffix scan over owner rank me's fragment share,
// forward then reverse-complement sequence IDs. Returns the characters
// examined.
func scanOwner(st seq.Seqs, bounds []int, me int, cfg Config, keep func(seq.Kmer) bool, fn func(suffixtree.Keyed)) int64 {
	lo, hi, n := bounds[me], bounds[me+1], st.N()
	return suffixtree.Scan(st, lo, hi, cfg.W, cfg.MinLen, keep, fn) +
		suffixtree.Scan(st, lo+n, hi+n, cfg.W, cfg.MinLen, keep, fn)
}

// Build constructs this rank's portion of the distributed GST. All
// ranks of the communicator must call it collectively.
func Build(c *par.Comm, st seq.Seqs, cfg Config) *Local {
	cfg = cfg.withDefaults()
	p := c.Size()
	owners := p - cfg.FirstOwner
	if owners < 1 {
		panic("pgst: no owner ranks")
	}
	bounds := ownerBounds(st, owners)

	// Out-of-core mode: agree on splitters from streamed samples and
	// defer all tree construction to bounded segment sweeps.
	if cfg.SpillBytes > 0 {
		return buildSpill(c, st, cfg, bounds, owners)
	}

	// Phase 1: enumerate and key the suffixes of this rank's fragments
	// (both orientations), into room for every suffix at least MinLen
	// long. Ranks below FirstOwner hold no fragments.
	var local []suffixtree.Keyed
	if me := c.Rank() - cfg.FirstOwner; me >= 0 {
		n := 0
		for fid := bounds[me]; fid < bounds[me+1]; fid++ {
			n += 2 * max(st.SeqLen(fid)-cfg.MinLen+1, 0)
		}
		local = make([]suffixtree.Keyed, 0, n)
		chars := scanOwner(st, bounds, me, cfg, nil, func(k suffixtree.Keyed) { local = append(local, k) })
		c.ChargeCompute(float64(chars)*costChar + float64(len(local))*costSuf)
	}

	// Phase 2: sort local suffixes by key and agree on splitters.
	suffixtree.SortKeyed(local)
	c.ChargeCompute(float64(len(local)) * log2f(len(local)) * costSort)
	splitters := chooseSplitters(c, local, owners, cfg)

	// Phase 3: redistribute suffixes so each bucket lands whole on its
	// owner rank, merged into the builder's order as they are decoded.
	// The merge is charged as the sort it stands for. A rank whose
	// exchange a death severed builds nothing and keeps serving fetches.
	c.TraceEvent(obs.EvPhaseEnter, obs.PhaseGSTRedist, 0, 0)
	mine, severed := redistribute(c, local, splitters, cfg)
	c.TraceEvent(obs.EvPhaseExit, obs.PhaseGSTRedist, 0, 0)
	c.ChargeCompute(float64(len(mine)) * log2f(len(mine)) * costSort)

	// Phase 4: buckets are the equal-key runs of mine; plan fetch
	// batches as contiguous runs of them.
	ids := newIDSet(st.NumSeqs())
	cuts, buckets := planBatches(st, mine, cfg.BatchBytes, ids)
	rounds := int(c.Allreduce(int64(len(cuts)-1), par.Max))

	// Phase 5: per batch, fetch the needed fragments with two
	// collective steps (request, serve), then build its buckets on
	// every core.
	ib := suffixtree.NewIncrementalBuilder(cfg.W)
	table := newFetchTable(st)
	access := func(int) suffixtree.Access { return table.Seq }
	var prevWork int64
	for round := 0; round < rounds; round++ {
		var batch []suffixtree.Keyed
		if round < len(cuts)-1 {
			batch = mine[cuts[round]:cuts[round+1]]
		}
		c.TraceEvent(obs.EvPhaseEnter, obs.PhaseGSTFetch, int64(round), 0)
		table.reset()
		fetchFragments(c, st, batch, bounds, cfg, table, ids)
		c.TraceEvent(obs.EvPhaseExit, obs.PhaseGSTFetch, int64(round), 0)
		ib.AddKeyed(access, batch)
		c.ChargeCompute(float64(ib.Work()-prevWork) * costChar)
		prevWork = ib.Work()
	}
	l := &Local{
		rank:          c.Rank(),
		Buckets:       buckets,
		SuffixesOwned: len(mine),
		FetchRounds:   rounds,
		Splitters:     splitters,
		Cfg:           cfg,
	}
	if !severed {
		l.tree = ib.Tree()
	}
	return l
}

// log2f is ⌊log₂ n⌋, at least 1: the comparison levels of a sort.
func log2f(n int) float64 { return float64(max(1, bits.Len(uint(n))-1)) }

// chooseSplitters gathers evenly spaced key samples at rank 0, sorts
// them, and broadcasts owners−1 splitters. A dead rank simply
// contributes no samples — the splitters steer only the bucket→rank
// partition, never the union of bucket contents, so equivalence with a
// fault-free build is unaffected.
func chooseSplitters(c *par.Comm, local []suffixtree.Keyed, owners int, cfg Config) []seq.Kmer {
	const perRank = 64
	rng := rand.New(rand.NewSource(cfg.Seed + int64(c.Rank())))
	w := wire.NewBuffer(perRank * 9)
	if len(local) > 0 {
		for i := 0; i < perRank; i++ {
			// Evenly spaced with jitter over the sorted local keys.
			idx := i * len(local) / perRank
			idx += rng.Intn(len(local)/perRank + 1)
			if idx >= len(local) {
				idx = len(local) - 1
			}
			w.PutUint(uint64(local[idx].Key))
		}
	}
	gathered, _ := c.Gather(0, w.Bytes())
	var enc []byte
	if c.Rank() == 0 {
		var samples []seq.Kmer
		for _, buf := range gathered {
			r := wire.NewReader(buf)
			for r.Remaining() > 0 {
				samples = append(samples, seq.Kmer(r.Uint()))
			}
		}
		slices.Sort(samples)
		out := wire.NewBuffer((owners - 1) * 9)
		for i := 1; i < owners; i++ {
			idx := i * len(samples) / owners
			if len(samples) == 0 {
				break
			}
			if idx >= len(samples) {
				idx = len(samples) - 1
			}
			out.PutUint(uint64(samples[idx]))
		}
		enc = out.Bytes()
	}
	enc = c.Bcast(0, enc)
	var splitters []seq.Kmer
	r := wire.NewReader(enc)
	for r.Remaining() > 0 {
		splitters = append(splitters, seq.Kmer(r.Uint()))
	}
	return splitters
}

// destOf maps a bucket key to its owner rank.
func destOf(splitters []seq.Kmer, key seq.Kmer, firstOwner int) int {
	// First splitter index with splitter > key.
	lo, hi := 0, len(splitters)
	for lo < hi {
		mid := (lo + hi) / 2
		if splitters[mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return firstOwner + lo
}

// ownedBy is the key filter of owner rank r's bucket range.
func ownedBy(splitters []seq.Kmer, firstOwner, r int) func(seq.Kmer) bool {
	return func(key seq.Kmer) bool { return destOf(splitters, key, firstOwner) == r }
}

// exchange is the one all-to-all of GST construction: the paper's
// staged variant when asked for on a fail-stop machine, the eager one
// otherwise. got[src] is false where src died before its buffer
// arrived (survivable machine only).
func exchange(c *par.Comm, cfg Config, bufs []*wire.Buffer) (recv [][]byte, got []bool) {
	raw := make([][]byte, len(bufs))
	for i, b := range bufs {
		raw[i] = b.Bytes()
	}
	if cfg.Staged && !c.Survivable() {
		return c.AlltoallvStaged(raw), nil
	}
	return c.Alltoallv(raw)
}

// newBufs returns one empty wire buffer per rank.
func newBufs(p int) []*wire.Buffer {
	bufs := make([]*wire.Buffer, p)
	for i := range bufs {
		bufs[i] = wire.NewBuffer(0)
	}
	return bufs
}

// uvarintLen is the encoded length of PutUint(v).
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// varintLen is the encoded length of PutInt(v).
func varintLen(v int) int { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

// putRecord encodes one keyed suffix for redistribution; recordLen is
// its length.
func putRecord(w *wire.Buffer, k suffixtree.Keyed) {
	w.PutUint(uint64(k.Key))
	w.PutInt(int(k.Suf.Sid))
	w.PutInt(int(k.Suf.Pos))
	w.PutInt(int(k.Suf.Prev))
}

func recordLen(k suffixtree.Keyed) int {
	return uvarintLen(uint64(k.Key)) + varintLen(int(k.Suf.Sid)) + varintLen(int(k.Suf.Pos)) + varintLen(int(k.Suf.Prev))
}

// redistribute exchanges keyed suffixes so each lands on its bucket's
// owner rank, and returns this rank's in the order SortKeyed puts them.
// local is in that order and the splitters cut key ranges, so each
// destination's records are one contiguous range of it, encoded into a
// buffer sized for it; each source's stream therefore arrives in (key,
// sid, pos) order, and a merge of the streams is the sort.
//
// It reports severed when a source died before its buffer reached this
// rank (a survivable machine; rank 0 never does, or the build would
// not survive): this rank's buckets are then incomplete, which it knows
// from its own exchange alone, so it receives none and its range is
// swept from the store when asked for.
func redistribute(c *par.Comm, local []suffixtree.Keyed, splitters []seq.Kmer, cfg Config) (mine []suffixtree.Keyed, severed bool) {
	bufs := make([]*wire.Buffer, c.Size())
	lo := 0
	for d := range bufs {
		hi := lo
		for hi < len(local) && destOf(splitters, local[hi].Key, cfg.FirstOwner) == d {
			hi++
		}
		size := 0
		for _, k := range local[lo:hi] {
			size += recordLen(k)
		}
		bufs[d] = wire.NewBuffer(size)
		for _, k := range local[lo:hi] {
			putRecord(bufs[d], k)
		}
		lo = hi
	}
	c.ChargeCompute(float64(len(local)) * costSuf)
	recv, got := exchange(c, cfg, bufs)
	if slices.Contains(got, false) {
		return nil, true
	}
	mine = mergeRecords(recv)
	c.ChargeCompute(float64(len(mine)) * costSuf)
	return mine, false
}

// recordStream decodes one source's redistributed records in order;
// head is the next one.
type recordStream struct {
	r    *wire.Reader
	head suffixtree.Keyed
}

// next decodes the stream's next record into head; false at its end.
func (s *recordStream) next() bool {
	if s.r.Remaining() == 0 {
		return false
	}
	s.head.Key = seq.Kmer(s.r.Uint())
	s.head.Suf = suffixtree.Suffix{Sid: s.r.Int32(), Pos: s.r.Int32(), Prev: int8(s.r.Int())}
	return true
}

// keyedLess orders keyed suffixes as SortKeyed does: by key, then by
// (sid, pos), both non-negative.
func keyedLess(x, y *suffixtree.Keyed) bool {
	if x.Key != y.Key {
		return x.Key < y.Key
	}
	return uint64(x.Suf.Sid)<<32|uint64(x.Suf.Pos) < uint64(y.Suf.Sid)<<32|uint64(y.Suf.Pos)
}

// mergeRecords decodes the redistribution streams, each in SortKeyed's
// order, through a p-way merge into one slice in that order. Every
// varint of a record ends in the one byte of it whose top bit is
// clear, so a stream's record count is a quarter of those bytes and the
// slice is allocated once.
func mergeRecords(recv [][]byte) []suffixtree.Keyed {
	n := 0
	for _, b := range recv {
		for ; len(b) >= 8; b = b[8:] {
			n += bits.OnesCount64(^binary.LittleEndian.Uint64(b) & 0x8080808080808080)
		}
		for _, x := range b {
			n += int(^x >> 7)
		}
	}
	out := make([]suffixtree.Keyed, 0, n/4)
	// heap is a binary min-heap of the unfinished streams by head.
	heap := make([]recordStream, 0, len(recv))
	for _, b := range recv {
		if s := (recordStream{r: wire.NewReader(b)}); s.next() {
			heap = append(heap, s)
		}
	}
	down := func(i int) {
		for {
			m, l := i, 2*i+1
			if l < len(heap) && keyedLess(&heap[l].head, &heap[m].head) {
				m = l
			}
			if l+1 < len(heap) && keyedLess(&heap[l+1].head, &heap[m].head) {
				m = l + 1
			}
			if m == i {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(heap) > 0 {
		out = append(out, heap[0].head)
		if !heap[0].next() {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		down(0)
	}
	return out
}

// idSet is a set of sequence IDs that empties in O(1): id is in it
// while mark[id] == gen, and clear moves gen on.
type idSet struct {
	mark []int32
	gen  int32
}

func newIDSet(n int) *idSet { return &idSet{mark: make([]int32, n), gen: 1} }

func (s *idSet) clear() { s.gen++ }

func (s *idSet) has(id int32) bool { return s.mark[id] == s.gen }

// add inserts id and reports whether it was absent.
func (s *idSet) add(id int32) bool {
	if s.mark[id] == s.gen {
		return false
	}
	s.mark[id] = s.gen
	return true
}

// planBatches groups the buckets of mine, its equal-key runs, into
// batches of consecutive buckets whose distinct fragments total at
// most batchBytes; batch k is mine[cuts[k]:cuts[k+1]]. A bucket joins
// the open batch unless the bytes of its fragments new to the batch
// would pass the bound, when it opens the next. Returns the bucket
// count too.
func planBatches(st seq.Seqs, mine []suffixtree.Keyed, batchBytes int, ids *idSet) (cuts []int, buckets int) {
	n := int32(st.N())
	cuts = []int{0}
	ids.clear()
	bytes := 0
	// added marks the fragments of mine[lo:hi] in ids and returns the
	// bytes of those that were new.
	added := func(lo, hi int) int {
		add := 0
		for _, k := range mine[lo:hi] {
			if fid := k.Suf.Sid % n; ids.add(fid) {
				add += st.SeqLen(int(fid))
			}
		}
		return add
	}
	suffixtree.EachRun(mine, func(lo, hi int) {
		buckets++
		add := added(lo, hi)
		if bytes+add > batchBytes && lo > cuts[len(cuts)-1] {
			cuts = append(cuts, lo)
			ids.clear()
			bytes = 0
			add = added(lo, hi)
		}
		bytes += add
	})
	if len(mine) > 0 {
		cuts = append(cuts, len(mine))
	}
	return cuts, buckets
}

// fetchFragments performs the two collective steps of one batch:
// request from their owners the fragments of every sequence the
// batch's suffixes lie on, then receive their bases into table and
// complete it.
func fetchFragments(c *par.Comm, st seq.Seqs, batch []suffixtree.Keyed, bounds []int, cfg Config, table *seqTable, ids *idSet) {
	p := c.Size()
	n := int32(st.N())
	// Step 1: send request lists to owners, one entry per fragment
	// however many of its two strands the batch reads.
	ids.clear()
	var need []int32
	reqBufs := newBufs(p)
	for _, k := range batch {
		sid := k.Suf.Sid
		if !ids.add(sid) {
			continue
		}
		need = append(need, sid)
		other, fid := sid+n, sid
		if sid >= n {
			other, fid = sid-n, sid-n
		}
		if !ids.has(other) {
			reqBufs[cfg.FirstOwner+ownerOf(bounds, int(fid))].PutInt(int(fid))
		}
	}
	reqs, _ := exchange(c, cfg, reqBufs)
	// Step 2: serve the requests. A dead owner serves nothing; complete
	// reads its fragments from the local copy of the store.
	respBufs := newBufs(p)
	served := 0
	for src, buf := range reqs {
		r := wire.NewReader(buf)
		for r.Remaining() > 0 {
			fid := r.Int()
			respBufs[src].PutInt(fid)
			respBufs[src].PutBytes(st.Seq(fid))
			served++
		}
	}
	c.ChargeCompute(float64(served) * costSuf)
	resps, _ := exchange(c, cfg, respBufs)
	for _, buf := range resps {
		r := wire.NewReader(buf)
		for r.Remaining() > 0 {
			fid := r.Int32()
			table.put(fid, r.Bytes())
		}
	}
	table.complete(st, need, c.Survivable())
}

// seqTable is the sequence-access table every trie build reads through:
// a dense slice over the 2n sequence IDs, so a character lookup is one
// index and never a map probe. At most maxBytes of bases are resident
// (0: unbounded), but always at least one sequence; when a load would
// pass the bound the table empties itself in O(resident) and refills
// from load on demand, which keeps the decoded bases of a disk-backed
// store bounded. Allocate one per build or sweep: the slice headers are
// O(n).
//
// A store that decodes into memory of the caller's (the disk store)
// decodes into arena, and emptying the table swaps arena with spare, so
// a bounded table stops allocating once both have grown to the bound
// and a slice it returned is not overwritten before the table empties
// twice — after the next lookup, which is what suffixtree.Access asks.
type seqTable struct {
	seqs     [][]byte
	live     []int32 // resident sids
	bytes    int     // resident bases
	maxBytes int
	size     func(sid int32) int // the bases load will return, if maxBytes > 0
	load     func(sid int32) []byte
	arena    []byte
	spare    []byte
}

// seqTableBytes bounds a store-backed table, the size of a disk store's
// default block cache: a store that fits is decoded once per sweep,
// however many segments the sweep has.
const seqTableBytes = 1 << 20

// newStoreTable returns a bounded table that loads misses from st.
func newStoreTable(st seq.Seqs) *seqTable {
	t := &seqTable{
		seqs:     make([][]byte, st.NumSeqs()),
		maxBytes: seqTableBytes,
		size:     func(sid int32) int { return st.SeqLen(int(sid)) },
		load:     func(sid int32) []byte { return st.Seq(int(sid)) },
	}
	if d, ok := st.(interface{ AppendSeq([]byte, int) []byte }); ok {
		t.load = func(sid int32) []byte {
			if t.arena == nil {
				t.arena = make([]byte, 0, t.maxBytes)
			}
			at := len(t.arena)
			t.arena = d.AppendSeq(t.arena, int(sid))
			return t.arena[at:]
		}
	}
	return t
}

// workerTables returns the per-worker Access of an AddKeyed over st:
// worker k reads through a bounded table of its own, made on first use
// and kept for every later call, so no table is shared between
// goroutines. The workers, at most one per core, split seqTableBytes
// between them, so a sweep's decoded bases stay under one cap whatever
// the core count.
func workerTables(st seq.Seqs) func(worker int) suffixtree.Access {
	var tables []*seqTable
	share := seqTableBytes / runtime.GOMAXPROCS(0)
	return func(k int) suffixtree.Access {
		for len(tables) <= k {
			t := newStoreTable(st)
			t.maxBytes = share
			tables = append(tables, t)
		}
		return tables[k].Seq
	}
}

// newFetchTable returns the table of the distributed build, filled per
// batch with the fragments their owners served (put) and completed
// (complete) before the batch's tries are built, and bounded by the
// batch, not by maxBytes. The builder's workers read it concurrently,
// so a lookup never writes: a miss is a sequence the batch never
// fetched, and panics.
func newFetchTable(st seq.Seqs) *seqTable {
	return &seqTable{
		seqs: make([][]byte, st.NumSeqs()),
		load: func(int32) []byte { panic("pgst: access to unfetched sequence") },
	}
}

// complete makes the fetch table hold every sequence of sids, the
// batch's: a reverse complement is derived from its forward fragment,
// and with fallback (a survivable machine) a fragment no owner served,
// its owner having died, is read from the local copy of the store.
func (t *seqTable) complete(st seq.Seqs, sids []int32, fallback bool) {
	n := int32(st.N())
	forward := func(fid int32) []byte {
		if s := t.seqs[fid]; s != nil {
			return s
		}
		if !fallback {
			panic("pgst: fragment never served")
		}
		s := st.Seq(int(fid))
		t.put(fid, s)
		return s
	}
	for _, sid := range sids {
		if sid < n {
			forward(sid)
		} else {
			t.put(sid, seq.ReverseComplement(forward(sid-n)))
		}
	}
}

// Seq is the table's suffixtree.Access.
func (t *seqTable) Seq(sid int32) []byte {
	if s := t.seqs[sid]; s != nil {
		return s
	}
	if t.maxBytes > 0 && t.bytes+t.size(sid) > t.maxBytes {
		t.reset()
	}
	s := t.load(sid)
	t.put(sid, s)
	return s
}

func (t *seqTable) put(sid int32, s []byte) {
	t.seqs[sid] = s
	t.live = append(t.live, sid)
	t.bytes += len(s)
}

func (t *seqTable) reset() {
	for _, sid := range t.live {
		t.seqs[sid] = nil
	}
	t.live = t.live[:0]
	t.bytes = 0
	t.arena, t.spare = t.spare[:0], t.arena
}
