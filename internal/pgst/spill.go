// Segment sweeps: how every GST other than the distributed resident
// build is constructed. A positive Config.SpillBytes is the out-of-core
// mode; without a budget the whole range is one segment, which is the
// serial tree, scanned straight into memory.
//
// Bucket-by-w-prefix already makes the tree a forest of independent
// subtrees, so nothing ever requires the whole tree in memory: pair
// generation is a per-bucket computation (Section 5). The spilling
// build therefore never materializes a rank's full forest. Instead it
// partitions the key space into contiguous *segments* sized so one
// segment's suffixes fit the byte budget (estimated from a streaming
// key histogram), distributes the keyed suffixes of one more scan into
// per-segment runs of a private temp file — a partitioned external
// sort, the I/O-bounded construction of Kundeti et al. — and the
// consumer sweeps: read one segment's run back, build its forest,
// generate its pairs, drop it, move on. The store is scanned twice
// whatever the segment count. Serial clustering and the workers sweep
// pipelined: a producer goroutine builds each segment as two
// half-segment sub-forests into two reused storages, so it builds the
// next segment while the consumer generates and aligns this one's
// pairs, and the resident forests are still one segment's. Combined
// with the disk-backed sequence store the resident set is
// O(budget + cache), independent of input size.
//
// The sweep is also the one fault-recovery path: a survivor whose
// redistribution a death severed sweeps its own range, and a dead
// rank's range is swept by whichever rank adopts it during clustering.
// The union of segment forests carries exactly the suffixes of a
// monolithic build, and each bucket lands whole in exactly one segment,
// so the forest union — and therefore the generated pair set — is
// identical.
package pgst

import (
	"encoding/binary"
	"fmt"
	"os"
	"slices"

	"repro/internal/obs"
	"repro/internal/obs/prof"
	"repro/internal/par"
	"repro/internal/seq"
	"repro/internal/suffixtree"
)

const (
	// spillBytesPerSuffix estimates the resident bytes one suffix costs
	// while its segment is being built and generated: the keyed record
	// in the run buffer (24), its leaf slot (12) and the tree nodes
	// reserved for it (48: 24 each, under two per suffix), 84 in all —
	// the run buffer plus the segment's forest, which a pipelined sweep
	// holds as two half-segment forests. The key sort works bin by bin
	// through one bin's scratch, the in-place builder adds one class
	// byte and one Suffix per suffix of the largest bucket, and pair
	// generation holds no per-suffix table: a stack of one bucket's
	// pending lsets and copies of the lists that form pairs, at most
	// 2·(Emitted + Skipped) suffixes. The value stays at the 96 that
	// planned segments when generation kept an lset cell per suffix, so
	// a budget still cuts an input into the same segments.
	spillBytesPerSuffix = 96
	// spillMaxBinBits caps the segment-planning histogram at 16K bins
	// (128 KiB of counters) regardless of W.
	spillMaxBinBits = 14
	// spillRecordBytes is one keyed suffix in a run file: key, sid and
	// pos little-endian, then prev.
	spillRecordBytes = 17
	// spillBufferBytes bounds a sweep's run-file write buffers together
	// (the budget does, if smaller): the size of the access table's cap
	// and of a disk store's default block cache. They hold records the
	// segment footprint estimate does not count, and are garbage only
	// once the first segment is being built.
	spillBufferBytes = 1 << 20
	// spillMinChunkRecords is the fewest records a run-file chunk holds,
	// so a budget split over thousands of segments still writes in blocks.
	spillMinChunkRecords = 32
)

// spillBinBits returns the histogram resolution for prefix length w.
func spillBinBits(w int) uint {
	bits := 2 * w
	if bits > spillMaxBinBits {
		bits = spillMaxBinBits
	}
	return uint(bits)
}

// spillBinShift maps a key to its histogram bin: bins are contiguous,
// order-preserving ranges of the packed key space.
func spillBinShift(w int) uint { return uint(2*w) - spillBinBits(w) }

// spillSegment is a contiguous histogram-bin range [loBin, hiBin)
// holding n suffixes.
type spillSegment struct {
	loBin, hiBin int
	n            int64
}

// planSpillSegments greedily packs histogram bins into segments whose
// estimated bytes stay under budget. A single bin denser than the
// whole budget still forms its own segment — the bin is the planning
// granule, so the budget is honored up to one bin's excess (documented
// in DESIGN.md §15; raise W or the budget if a single 2w-prefix
// dominates the input).
func planSpillSegments(hist []int64, budget int64) []spillSegment {
	maxSuf := budget / spillBytesPerSuffix
	if maxSuf < 1 {
		maxSuf = 1
	}
	var segs []spillSegment
	lo := 0
	var acc int64
	for b := 0; b < len(hist); b++ {
		if acc > 0 && acc+hist[b] > maxSuf {
			segs = append(segs, spillSegment{lo, b, acc})
			lo, acc = b, 0
		}
		acc += hist[b]
	}
	if acc > 0 {
		segs = append(segs, spillSegment{lo, len(hist), acc})
	}
	return segs
}

// spillRuns is a sweep's partitioned external sort: the keyed suffixes
// of one scan, distributed by segment into runs of one temp file. Each
// segment fills a buffer and appends it to the file as one chunk headed
// by the offset of the segment's previous chunk, so the sweep holds one
// file descriptor and O(segments) bookkeeping however large the file
// grows, and a run read back along its chain is in scan order — (sid,
// pos) order within every key, which SortKeyed keeps. The file is
// unlinked as soon as it is created, so nothing outlives the sweep,
// however it ends.
type spillRuns struct {
	f       *os.File // created on the first write
	end     int64    // bytes written to f
	segOf   []int32  // histogram bin → segment
	runs    []spillRun
	chunk   int    // a full chunk's bytes: header and whole records
	scratch []byte // one chunk read back
	// The records of the segment read last and their bins' free ends:
	// the next read overwrites them.
	ks   []suffixtree.Keyed
	free []int
	// A bin's key sort: its records in one digit's order, and the
	// digit's counts.
	tmp   []suffixtree.Keyed
	count [1 << spillDigitBits]int
}

// spillDigitBits is the widest key digit one counting pass of a bin's
// sort orders by.
const spillDigitBits = 8

// spillRun is one segment's run.
type spillRun struct {
	n      int    // records, from the histogram
	lo, hi int    // its histogram bins
	buf    []byte // the chunk being filled: header, then records
	last   int64  // offset of the latest chunk written, -1 before the first
	size   int    // bytes of that chunk
}

// spillChunkHeader is a chunk's header: the offset of the previous
// chunk of its run, -1 for the first.
const spillChunkHeader = 8

// newSpillRuns returns empty runs for segs over nbins histogram bins.
// The segments' buffers together hold about spillBufferBytes, or budget
// if smaller, and at least spillMinChunkRecords records each.
func newSpillRuns(segs []spillSegment, nbins int, budget int64) *spillRuns {
	recs := max(min(budget, spillBufferBytes)/int64(len(segs))/spillRecordBytes, spillMinChunkRecords)
	r := &spillRuns{
		segOf: make([]int32, nbins),
		runs:  make([]spillRun, len(segs)),
		chunk: spillChunkHeader + int(recs)*spillRecordBytes,
	}
	r.scratch = make([]byte, r.chunk)
	for s, sg := range segs {
		r.runs[s] = spillRun{n: int(sg.n), lo: sg.loBin, hi: sg.hiBin, buf: make([]byte, spillChunkHeader, r.chunk), last: -1}
		for b := sg.loBin; b < sg.hiBin; b++ {
			r.segOf[b] = int32(s)
		}
	}
	return r
}

// add appends k, whose key falls in histogram bin bin, to its segment.
func (r *spillRuns) add(bin int, k suffixtree.Keyed) {
	run := &r.runs[r.segOf[bin]]
	b := binary.LittleEndian.AppendUint64(run.buf, uint64(k.Key))
	b = binary.LittleEndian.AppendUint32(b, uint32(k.Suf.Sid))
	b = binary.LittleEndian.AppendUint32(b, uint32(k.Suf.Pos))
	run.buf = append(b, byte(k.Suf.Prev))
	if len(run.buf) == r.chunk {
		r.flush(run)
	}
}

// flush appends run's buffered records to the file as one chunk.
func (r *spillRuns) flush(run *spillRun) {
	if len(run.buf) <= spillChunkHeader {
		return
	}
	if r.f == nil {
		f, err := os.CreateTemp("", "asmsweep-*")
		if err != nil {
			spillFail(err)
		}
		r.f = f
		if err := os.Remove(f.Name()); err != nil {
			spillFail(err)
		}
	}
	binary.LittleEndian.PutUint64(run.buf, uint64(run.last))
	if _, err := r.f.Write(run.buf); err != nil {
		spillFail(err)
	}
	run.last, run.size = r.end, len(run.buf)
	r.end += int64(len(run.buf))
	run.buf = run.buf[:spillChunkHeader]
}

// seal writes every partial buffer and drops the buffers: from here on
// the runs are only in the file.
func (r *spillRuns) seal() {
	for s := range r.runs {
		r.flush(&r.runs[s])
		r.runs[s].buf = nil
	}
}

// read returns segment s's records in the order SortKeyed puts them,
// in a buffer the next read overwrites. hist is the sweep's histogram,
// whose bins are contiguous key ranges: read places every record in its
// bin's share of the buffer as it comes off the file, then sorts each
// bin by the key bits below shift (sortBin). It follows the run's chain
// from its latest chunk back (every chunk but the latest is full) and
// fills each bin from its end, so a bin holds its records in scan order
// and the key sort, being stable, leaves equal keys in (sid, pos)
// order.
func (r *spillRuns) read(s int, hist []int64, shift uint) []suffixtree.Keyed {
	run := r.runs[s]
	r.ks = slices.Grow(r.ks[:0], run.n)[:run.n]
	r.free = r.free[:0]
	sum := 0
	for _, c := range hist[run.lo:run.hi] {
		sum += int(c)
		r.free = append(r.free, sum)
	}
	i := run.n
	for off, size := run.last, run.size; off >= 0; size = r.chunk {
		b := r.scratch[:size]
		if _, err := r.f.ReadAt(b, off); err != nil {
			spillFail(err)
		}
		off = int64(binary.LittleEndian.Uint64(b))
		i -= (size - spillChunkHeader) / spillRecordBytes
		if i < 0 {
			break
		}
		for end := size; end > spillChunkHeader; end -= spillRecordBytes {
			b := b[end-spillRecordBytes : end]
			k := suffixtree.Keyed{
				Key: seq.Kmer(binary.LittleEndian.Uint64(b)),
				Suf: suffixtree.Suffix{
					Sid:  int32(binary.LittleEndian.Uint32(b[8:])),
					Pos:  int32(binary.LittleEndian.Uint32(b[12:])),
					Prev: int8(b[16]),
				},
			}
			bin := int(k.Key>>shift) - run.lo
			if bin < 0 || bin >= len(r.free) || r.free[bin] == 0 {
				spillFail(fmt.Errorf("segment %d: a record of key %x outside its bins", s, k.Key))
			}
			r.free[bin]--
			r.ks[r.free[bin]] = k
		}
	}
	if i != 0 {
		spillFail(fmt.Errorf("segment %d: run does not hold its %d records", s, run.n))
	}
	lo := 0
	for bin, c := range hist[run.lo:run.hi] {
		if r.free[bin] != lo {
			spillFail(fmt.Errorf("segment %d: run does not hold the %d records of its bin %d", s, c, run.lo+bin))
		}
		if shift > 0 && c > 1 {
			r.sortBin(r.ks[lo:lo+int(c)], shift)
		}
		lo += int(c)
	}
	return r.ks
}

// sortBin orders one bin's records by their key bits below shift,
// stably: a counting pass per digit of at most spillDigitBits, lowest
// digit first, each from one of ks and r.tmp into the other.
func (r *spillRuns) sortBin(ks []suffixtree.Keyed, shift uint) {
	r.tmp = slices.Grow(r.tmp[:0], len(ks))[:len(ks)]
	src, dst := ks, r.tmp
	for at := uint(0); at < shift; at += spillDigitBits {
		count := r.count[:1<<min(shift-at, spillDigitBits)]
		clear(count)
		mask := seq.Kmer(len(count) - 1)
		for _, k := range src {
			count[k.Key>>at&mask]++
		}
		sum := 0
		for d, c := range count {
			count[d], sum = sum, sum+c
		}
		for _, k := range src {
			d := k.Key >> at & mask
			dst[count[d]] = k
			count[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ks[0] {
		copy(ks, src)
	}
}

// close releases the run file. It is already unlinked and nothing in it
// needs to outlive the sweep, so Close's error changes nothing.
func (r *spillRuns) close() {
	if r.f != nil {
		r.f.Close()
	}
}

// spillFail reports an I/O failure on a run file. The sweep's consumers
// pull forests through a yield with no error channel, and the file is a
// private temp file that worked moments ago, so it is unrecoverable
// where it happens (diskstore's Seq follows the same policy).
func spillFail(err error) {
	panic(fmt.Sprintf("pgst: sweep run file: %v", err))
}

// addBuildCost returns cost plus the modeled cost of sorting n keyed
// suffixes and examining chars characters to build their tries.
func addBuildCost(cost float64, n int, chars int64) float64 {
	return cost +
		float64(n)*(costSuf+log2f(n)*costSort) +
		float64(chars)*costChar
}

// A sweepSink takes what a sweep's producer makes: storage returns the
// forest storage to build the next sub-forest into (nil: fresh), put
// takes the built sub-forest, and end closes a segment with the cost of
// building it. Each returns false once the consumer has stopped.
type sweepSink interface {
	storage() (*suffixtree.Tree, bool)
	put(t *suffixtree.Tree) bool
	end(cost float64) bool
}

// sweepFiltered is every sweep's producer: it builds the keys passing
// own (nil: all) segment by segment in ascending key order and delivers
// each segment to sink as its sub-forests, then its cost — the modeled
// cost of building it, which the consumer charges wherever it pulls the
// sweep. Without a byte budget the whole range is one segment, scanned
// into memory and built whole. With one, a histogram scan plans the
// segments and a distribution scan writes their runs (spillRuns); the
// first segment pays for both scans (an empty range delivers one empty
// forest to carry them), and each segment pays for sorting and building
// its run. With split, a segment is built as two sub-forests cut at the
// bucket boundary nearest half its suffixes (halfCut), each one
// AddKeyed over its half of the run; a segment of one bucket stays
// whole. Each builder worker reads bases through its own table
// (workerTables), so the tries of a store that fits seqTableBytes
// decode it once per worker and sweep, not once per segment, and every
// sub-forest is built into storage the sink hands back, so a sweep's
// heap stops growing at its largest segment. Returns false if the sink
// stopped the sweep.
func sweepFiltered(st seq.Seqs, cfg Config, own func(seq.Kmer) bool, split bool, sink sweepSink) bool {
	scan := func(fn func(suffixtree.Keyed)) float64 {
		return float64(suffixtree.Scan(st, 0, st.NumSeqs(), cfg.W, cfg.MinLen, own, fn)) * costChar
	}
	access := workerTables(st)
	// One builder for every segment: its per-sequence tables of last
	// masked bytes are filled once per sweep, not once per segment.
	ib := suffixtree.NewIncrementalBuilder(cfg.W)
	build := func(ks []suffixtree.Keyed) bool {
		t, ok := sink.storage()
		if !ok {
			return false
		}
		if t != nil {
			ib.Reuse(t)
		}
		ib.AddKeyed(access, ks)
		return sink.put(ib.TakeTree())
	}
	if cfg.SpillBytes <= 0 {
		var ks []suffixtree.Keyed
		if own == nil {
			// Every suffix at least MinLen long that Scan can yield; a
			// filtered range keeps about one owner's share of them, so
			// it grows instead.
			n := 0
			for sid := range st.NumSeqs() {
				n += max(st.SeqLen(sid)-cfg.MinLen+1, 0)
			}
			ks = make([]suffixtree.Keyed, 0, n)
		}
		cost := scan(func(k suffixtree.Keyed) { ks = append(ks, k) })
		suffixtree.SortKeyed(ks)
		n, before := len(ks), ib.Work()
		return build(ks) && sink.end(addBuildCost(cost, n, ib.Work()-before))
	}
	shift := spillBinShift(cfg.W)
	hist := make([]int64, 1<<spillBinBits(cfg.W))
	cost := scan(func(k suffixtree.Keyed) { hist[k.Key>>shift]++ })
	segs := planSpillSegments(hist, cfg.SpillBytes)
	if len(segs) == 0 {
		// An empty range still paid for the scan that found it empty.
		return build(nil) && sink.end(cost)
	}
	runs := newSpillRuns(segs, len(hist), cfg.SpillBytes)
	defer runs.close()
	cost += scan(func(k suffixtree.Keyed) { runs.add(int(k.Key>>shift), k) })
	runs.seal()
	for s, sg := range segs {
		ks := runs.read(s, hist, shift)
		cut := len(ks)
		if split {
			cut = halfCut(ks)
		}
		before := ib.Work()
		if !build(ks[:cut]) || cut < len(ks) && !build(ks[cut:]) {
			return false
		}
		if !sink.end(addBuildCost(cost, int(sg.n), ib.Work()-before)) {
			return false
		}
		cost = 0
	}
	return true
}

// halfCut returns the bucket boundary of the key-sorted ks nearest half
// its records, the lower of two as near, or len(ks) if ks holds one
// bucket or none.
func halfCut(ks []suffixtree.Keyed) int {
	n := len(ks)
	for d := 0; n/2-d > 0 || n/2+d < n; d++ {
		if i := n/2 - d; i > 0 && ks[i-1].Key != ks[i].Key {
			return i
		}
		if i := n/2 + d; i > 0 && i < n && ks[i-1].Key != ks[i].Key {
			return i
		}
	}
	return n
}

// inlineSink runs a sweep on its consumer's goroutine with every
// segment built whole: yield gets each segment's forest and cost, and
// the next segment is built into that forest's storage once yield
// returns, so nothing is built ahead.
type inlineSink struct {
	yield func(*suffixtree.Tree, float64) bool
	cur   *suffixtree.Tree
}

func (s *inlineSink) storage() (*suffixtree.Tree, bool) { return s.cur, true }
func (s *inlineSink) put(t *suffixtree.Tree) bool       { s.cur = t; return true }
func (s *inlineSink) end(cost float64) bool             { return s.yield(s.cur, cost) }

// piece is one message of a pipelined sweep: a sub-forest, the end of a
// segment with its cost, or the producer's panic.
type piece struct {
	t    *suffixtree.Tree
	cost float64
	end  bool
	fail any
}

// pipeSink is the producer's side of a pipelined sweep.
type pipeSink struct {
	pieces chan<- piece
	free   <-chan *suffixtree.Tree
	stop   <-chan struct{}
}

func (s *pipeSink) storage() (*suffixtree.Tree, bool) {
	select {
	case t := <-s.free:
		return t, true
	case <-s.stop:
		return nil, false
	}
}

func (s *pipeSink) send(p piece) bool {
	select {
	case s.pieces <- p:
		return true
	case <-s.stop:
		return false
	}
}

func (s *pipeSink) put(t *suffixtree.Tree) bool { return s.send(piece{t: t}) }
func (s *pipeSink) end(cost float64) bool       { return s.send(piece{cost: cost, end: true}) }

// pipelined runs produce on a goroutine of its own, labelled as rank's
// GST phase, while the caller consumes its output: add gets each
// sub-forest, whose storage goes back to the producer when add returns,
// and end each segment's cost. The producer builds ahead into two
// storages only — one segment's two sub-forests — so a split sweep's
// forests hold one segment's tree bytes however far ahead it runs. A
// panic of the producer is re-raised on the caller. However the caller
// stops — end returning false, add or end panicking — the producer
// stops within the sub-forest it is building and is joined, its run
// file closed, before pipelined returns. Returns false if end stopped
// the sweep.
func pipelined(rank int, produce func(sweepSink) bool, add func(*suffixtree.Tree), end func(cost float64) bool) bool {
	const storages = 2
	// Room for a sub-forest and a segment end per storage: the storages
	// bound how far the producer runs ahead, not the sends.
	pieces := make(chan piece, 2*storages)
	free := make(chan *suffixtree.Tree, storages)
	for range storages {
		free <- nil
	}
	stop := make(chan struct{})
	go func() {
		defer close(pieces)
		defer func() {
			if p := recover(); p != nil {
				pieces <- piece{fail: p}
			}
		}()
		prof.ApplyLabels(rank, obs.PhaseName(obs.PhaseGST))
		produce(&pipeSink{pieces: pieces, free: free, stop: stop})
	}()
	defer func() {
		close(stop)
		for range pieces {
		}
	}()
	for p := range pieces {
		switch {
		case p.fail != nil:
			panic(p.fail)
		case p.end:
			if !end(p.cost) {
				return false
			}
		default:
			add(p.t)
			free <- p.t
		}
	}
	return true
}

// SweepSerial builds the store's full GST in bounded segments, calling
// yield with each segment's forest, whole, in ascending key order on
// the caller's goroutine; the next segment is built into the forest's
// storage once yield returns. The union of yielded forests is the
// serial tree, which is what a sweep without a budget yields whole —
// consume-and-drop is what makes serial clustering run in
// O(SpillBytes) tree memory.
func SweepSerial(st seq.Seqs, cfg Config, yield func(*suffixtree.Tree) bool) {
	sweepFiltered(st, cfg.withDefaults(), nil, false, &inlineSink{yield: func(t *suffixtree.Tree, _ float64) bool { return yield(t) }})
}

// Sweep is SweepSerial pipelined, a pairgen.Sweep of the store's full
// GST: each segment reaches add as its two sub-forests, built on a
// goroutine of its own while the caller consumes the ones before (see
// pipelined), then end gets the segment's cost. Serial clustering
// sweeps this way. Returns false if end stopped the sweep.
func Sweep(st seq.Seqs, cfg Config, add func(*suffixtree.Tree), end func(cost float64) bool) bool {
	cfg = cfg.withDefaults()
	return pipelined(0, func(s sweepSink) bool { return sweepFiltered(st, cfg, nil, true, s) }, add, end)
}

// Forests calls yield with each forest of the buckets the splitter
// partition assigned to owner rank r, and the modeled compute cost of
// building it, on the caller's goroutine. This rank's own range of a
// resident build is the tree Build left resident, already paid for.
// Anything else — any range of a spilling build, the own range of a
// rank whose redistribution a death severed, a dead rank's range during
// adoption — is swept from the store: bounded segments under
// Cfg.SpillBytes, one segment without a budget, each forest's storage
// reused by the next once yield returns. Returns false if yield stopped
// the sweep.
func (l *Local) Forests(st seq.Seqs, r int, yield func(*suffixtree.Tree, float64) bool) bool {
	if l.tree != nil && r == l.rank {
		return yield(l.tree, 0)
	}
	return sweepFiltered(st, l.Cfg, ownedBy(l.Splitters, l.Cfg.FirstOwner, r), false, &inlineSink{yield: yield})
}

// Sweep is the one way a rank's GST reaches pair generation: Forests
// as a pairgen.Sweep. The resident tree is one segment of one
// sub-forest; a swept range is pipelined like the serial Sweep, its
// producer labelled with this rank.
func (l *Local) Sweep(st seq.Seqs, r int, add func(*suffixtree.Tree), end func(cost float64) bool) bool {
	if l.tree != nil && r == l.rank {
		add(l.tree)
		return end(0)
	}
	own := ownedBy(l.Splitters, l.Cfg.FirstOwner, r)
	return pipelined(l.rank, func(s sweepSink) bool { return sweepFiltered(st, l.Cfg, own, true, s) }, add, end)
}

// sampleOwnerKeys draws perRank evenly spaced suffix keys from owner
// rank me's fragment range in two streaming passes (count, then
// collect) — the spilling substitute for sampling the materialized
// enumeration. Returns sorted keys and the characters examined.
func sampleOwnerKeys(st seq.Seqs, bounds []int, me int, cfg Config, perRank int) ([]seq.Kmer, int64) {
	var cnt int64
	chars := scanOwner(st, bounds, me, cfg, nil, func(suffixtree.Keyed) { cnt++ })
	if cnt == 0 {
		return nil, chars
	}
	if int64(perRank) > cnt {
		perRank = int(cnt)
	}
	keys := make([]seq.Kmer, 0, perRank)
	var idx, next int64
	step := cnt / int64(perRank)
	chars += scanOwner(st, bounds, me, cfg, nil, func(k suffixtree.Keyed) {
		if idx == next && len(keys) < perRank {
			keys = append(keys, k.Key)
			next += step
		}
		idx++
	})
	slices.Sort(keys)
	return keys, chars
}

// buildSpill is Build's spilling mode: agree on splitters from
// streamed samples, then return immediately — no enumeration is
// retained, no suffixes are exchanged, no tree is resident. Each rank
// sweeps its own key range (and any it adopts) lazily via Forests;
// every rank reads the shared store directly, so the redistribution and
// fragment-fetch collectives of the in-memory path have nothing to move.
func buildSpill(c *par.Comm, st seq.Seqs, cfg Config, bounds []int, owners int) *Local {
	var samples []suffixtree.Keyed
	if me := c.Rank() - cfg.FirstOwner; me >= 0 {
		keys, chars := sampleOwnerKeys(st, bounds, me, cfg, 64)
		c.ChargeCompute(float64(chars) * costChar)
		for _, k := range keys {
			samples = append(samples, suffixtree.Keyed{Key: k})
		}
	}
	return &Local{rank: c.Rank(), Splitters: chooseSplitters(c, samples, owners, cfg), Cfg: cfg}
}
