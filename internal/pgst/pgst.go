// Package pgst implements the paper's parallel generalized suffix tree
// construction (Section 6). Each rank enumerates the suffixes of its
// fragment share, suffixes are sorted into w-prefix buckets and
// redistributed so every rank owns a load-balanced set of whole
// buckets, and each rank then builds its bucket subtrees depth-first —
// fetching the fragments a batch of buckets needs through two
// collective communication steps per batch, so per-rank space stays
// O(N/p) instead of O(min(N·l/p, N)).
//
// Bucket-to-rank assignment uses sample sort splitters over the packed
// w-prefix keys: a bucket's suffixes all share one key, so a range
// partition of the key space keeps buckets whole while balancing
// suffix counts (the paper's load-balanced redistribution).
//
// On a survivable machine (par.Comm.Survivable: a fault plan or a
// transport) the build outlives its ranks, provided rank 0 — the
// clustering master's role — survives, and it recovers a death one way:
// by the sweep Local.Forests already runs, since every rank holds the
// full store. The collectives skip dead ranks; a survivor whose
// redistribution a death severed sees it in its own exchange, keeps no
// resident tree and sweeps its own range when asked for it; a dead
// owner's range is swept by whichever rank is handed it (the clustering
// master's adoption). Nothing extra is agreed or sent, so a fail-stop
// machine keeps the paper's message pattern.
package pgst

import (
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
	// (both orientations). Ranks below FirstOwner hold no fragments.
	var local []suffixtree.Keyed
	if me := c.Rank() - cfg.FirstOwner; me >= 0 {
		chars := scanOwner(st, bounds, me, cfg, nil, func(k suffixtree.Keyed) { local = append(local, k) })
		c.ChargeCompute(float64(chars)*costChar + float64(len(local))*costSuf)
	}

	// Phase 2: sort local suffixes by key and agree on splitters.
	suffixtree.SortKeyed(local)
	c.ChargeCompute(float64(len(local)) * log2f(len(local)) * costSort)
	splitters := chooseSplitters(c, local, owners, cfg)

	// Phase 3: redistribute suffixes so each bucket lands whole on its
	// owner rank, then sort once into the builder's order. A rank whose
	// exchange a death severed builds nothing and keeps serving fetches.
	c.TraceEvent(obs.EvPhaseEnter, obs.PhaseGSTRedist, 0, 0)
	mine, severed := redistribute(c, local, splitters, cfg)
	c.TraceEvent(obs.EvPhaseExit, obs.PhaseGSTRedist, 0, 0)
	suffixtree.SortKeyed(mine)
	c.ChargeCompute(float64(len(mine)) * log2f(len(mine)) * costSort)

	// Phase 4: buckets as sub-slices of one array; plan fetch batches.
	nsuf := len(mine)
	all := make([]suffixtree.Suffix, nsuf)
	for i, k := range mine {
		all[i] = k.Suf
	}
	var buckets [][]suffixtree.Suffix
	suffixtree.EachRun(mine, func(lo, hi int) { buckets = append(buckets, all[lo:hi]) })
	batches := planBatches(st, buckets, cfg.BatchBytes)
	rounds := int(c.Allreduce(int64(len(batches)), par.Max))

	// Phase 5: per batch, fetch the needed fragments with two
	// collective steps (request, serve), then build the subtrees.
	ib := suffixtree.NewIncrementalBuilder(cfg.W)
	ib.Grow(nsuf)
	table := newFetchTable(st, c.Survivable())
	var prevWork int64
	for round := 0; round < rounds; round++ {
		var batch []int
		if round < len(batches) {
			batch = batches[round]
		}
		c.TraceEvent(obs.EvPhaseEnter, obs.PhaseGSTFetch, int64(round), 0)
		table.reset()
		fetchFragments(c, st, buckets, batch, bounds, cfg, table)
		c.TraceEvent(obs.EvPhaseExit, obs.PhaseGSTFetch, int64(round), 0)
		for _, bi := range batch {
			ib.AddBucket(table.Seq, buckets[bi])
		}
		c.ChargeCompute(float64(ib.Work()-prevWork) * costChar)
		prevWork = ib.Work()
	}
	l := &Local{
		rank:          c.Rank(),
		Buckets:       len(buckets),
		SuffixesOwned: nsuf,
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

// redistribute exchanges keyed suffixes so each lands on its bucket's
// owner rank. It reports severed when a source died before its buffer
// reached this rank (a survivable machine; rank 0 never does, or the
// build would not survive): this rank's buckets are then incomplete,
// which it knows from its own exchange alone, so it receives none and
// its range is swept from the store when asked for.
func redistribute(c *par.Comm, local []suffixtree.Keyed, splitters []seq.Kmer, cfg Config) (mine []suffixtree.Keyed, severed bool) {
	bufs := newBufs(c.Size())
	for _, ks := range local {
		d := destOf(splitters, ks.Key, cfg.FirstOwner)
		w := bufs[d]
		w.PutUint(uint64(ks.Key))
		w.PutInt(int(ks.Suf.Sid))
		w.PutInt(int(ks.Suf.Pos))
		w.PutInt(int(ks.Suf.Prev))
	}
	c.ChargeCompute(float64(len(local)) * costSuf)
	recv, got := exchange(c, cfg, bufs)
	if slices.Contains(got, false) {
		return nil, true
	}
	for _, buf := range recv {
		r := wire.NewReader(buf)
		for r.Remaining() > 0 {
			key := seq.Kmer(r.Uint())
			sid := r.Int32()
			pos := r.Int32()
			prev := int8(r.Int())
			mine = append(mine, suffixtree.Keyed{Key: key, Suf: suffixtree.Suffix{Sid: sid, Pos: pos, Prev: prev}})
		}
	}
	c.ChargeCompute(float64(len(mine)) * costSuf)
	return mine, false
}

// planBatches groups bucket indices into batches whose distinct
// fragments total at most batchBytes.
func planBatches(st seq.Seqs, buckets [][]suffixtree.Suffix, batchBytes int) [][]int {
	n := st.N()
	var batches [][]int
	var cur []int
	seen := make(map[int32]bool)
	bytes := 0
	flush := func() {
		if len(cur) > 0 {
			batches = append(batches, cur)
			cur = nil
			seen = make(map[int32]bool)
			bytes = 0
		}
	}
	// contribution returns the new-fragment bytes bucket b adds over
	// the current seen set, without mutating it.
	contribution := func(b []suffixtree.Suffix) (int, []int32) {
		add := 0
		var fids []int32
		dup := make(map[int32]bool)
		for _, sf := range b {
			fid := sf.Sid % int32(n)
			if !seen[fid] && !dup[fid] {
				dup[fid] = true
				fids = append(fids, fid)
				add += st.SeqLen(int(fid))
			}
		}
		return add, fids
	}
	for bi, b := range buckets {
		add, fids := contribution(b)
		if bytes+add > batchBytes && len(cur) > 0 {
			flush()
			add, fids = contribution(b)
		}
		cur = append(cur, bi)
		for _, fid := range fids {
			seen[fid] = true
		}
		bytes += add
	}
	flush()
	return batches
}

// fetchFragments performs the two collective steps of one batch:
// request the owners of every fragment the batch's buckets reference,
// then receive their bases into table.
func fetchFragments(c *par.Comm, st seq.Seqs, buckets [][]suffixtree.Suffix, batch []int, bounds []int, cfg Config, table *seqTable) {
	p := c.Size()
	n := st.N()
	need := make(map[int32]bool)
	for _, bi := range batch {
		for _, sf := range buckets[bi] {
			need[sf.Sid%int32(n)] = true
		}
	}
	// Step 1: send request lists to owners.
	reqBufs := newBufs(p)
	for fid := range need {
		owner := cfg.FirstOwner + ownerOf(bounds, int(fid))
		reqBufs[owner].PutInt(int(fid))
	}
	reqs, _ := exchange(c, cfg, reqBufs)
	// Step 2: serve the requests. A dead owner serves nothing; its
	// fragments are read from the local copy of the store via the
	// table's miss fallback.
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
// batch with the forward fragments their owners served (put) and
// bounded by the batch, not by maxBytes. Reverse complements are derived on
// demand. With fallback (a survivable machine) a fragment a dead owner
// never served is read from the local copy of the store instead of
// panicking.
func newFetchTable(st seq.Seqs, fallback bool) *seqTable {
	n := int32(st.N())
	t := &seqTable{seqs: make([][]byte, st.NumSeqs())}
	t.load = func(sid int32) []byte {
		if sid >= n {
			return seq.ReverseComplement(t.Seq(sid - n))
		}
		if !fallback {
			panic("pgst: access to unfetched fragment")
		}
		return st.Seq(int(sid))
	}
	return t
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
