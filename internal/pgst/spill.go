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
// whatever the segment count. Combined with the disk-backed sequence
// store the resident set is O(budget + cache), independent of input
// size.
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
	"cmp"
	"encoding/binary"
	"fmt"
	"os"
	"slices"

	"repro/internal/par"
	"repro/internal/seq"
	"repro/internal/suffixtree"
)

const (
	// spillBytesPerSuffix estimates the resident bytes one suffix costs
	// while its segment is being built and generated: the keyed record
	// in the run buffer (24), its leaf slot (12) and the tree nodes
	// reserved for it (48: 24 each, under two per suffix), 84 in all. The
	// key sort works bin by bin in that buffer, the in-place builder adds
	// one class byte and one Suffix per suffix of the largest bucket, and
	// pair generation holds no per-suffix table: a stack of one bucket's
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
}

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
// bin by key. It follows the run's chain from its latest chunk back
// (every chunk but the latest is full) and fills each bin from its end,
// so a bin holds its records in scan order and the key sort, being
// stable, leaves equal keys in (sid, pos) order.
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
		if shift > 0 {
			slices.SortStableFunc(r.ks[lo:lo+int(c)], cmpKey)
		}
		lo += int(c)
	}
	return r.ks
}

func cmpKey(x, y suffixtree.Keyed) int { return cmp.Compare(x.Key, y.Key) }

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

// sweepFiltered yields one forest per segment of the keys passing own
// (nil: all), building and dropping them in turn, each with the modeled
// cost of building it — the sweep runs wherever its consumer pulls it,
// so charging that cost is the consumer's business. Without a byte
// budget the whole range is one segment, scanned into memory. With one,
// a histogram scan plans the segments and a distribution scan writes
// their runs (spillRuns); the first segment pays for both scans (an
// empty range yields one empty forest to carry the first), and each
// segment pays for sorting and building its run. Each builder worker
// reads bases through its own table (workerTables), so the tries of a
// store that fits seqTableBytes decode it once per worker and sweep,
// not once per segment. A segment reuses the run buffer and the forest
// storage of the one before it, so a sweep's heap stops growing at its
// largest segment; a consumer must therefore not keep a forest past its
// yield (Tree.Clone copies one). Returns false if yield stopped the
// sweep.
func sweepFiltered(st seq.Seqs, cfg Config, own func(seq.Kmer) bool, yield func(*suffixtree.Tree, float64) bool) bool {
	scan := func(fn func(suffixtree.Keyed)) float64 {
		return float64(suffixtree.Scan(st, 0, st.NumSeqs(), cfg.W, cfg.MinLen, own, fn)) * costChar
	}
	access := workerTables(st)
	// One builder for every segment: its per-sequence tables of last
	// masked bytes are filled once per sweep, not once per segment.
	ib := suffixtree.NewIncrementalBuilder(cfg.W)
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
		n, before := len(ks), ib.Work()
		ib.AddKeyed(access, ks)
		return yield(ib.TakeTree(), addBuildCost(cost, n, ib.Work()-before))
	}
	shift := spillBinShift(cfg.W)
	hist := make([]int64, 1<<spillBinBits(cfg.W))
	cost := scan(func(k suffixtree.Keyed) { hist[k.Key>>shift]++ })
	segs := planSpillSegments(hist, cfg.SpillBytes)
	if len(segs) == 0 {
		// An empty range still paid for the scan that found it empty.
		return yield(&suffixtree.Tree{W: cfg.W}, cost)
	}
	runs := newSpillRuns(segs, len(hist), cfg.SpillBytes)
	defer runs.close()
	cost += scan(func(k suffixtree.Keyed) { runs.add(int(k.Key>>shift), k) })
	runs.seal()
	for s, sg := range segs {
		before := ib.Work()
		ib.AddKeyed(access, runs.read(s, hist, shift))
		cost = addBuildCost(cost, int(sg.n), ib.Work()-before)
		t := ib.TakeTree()
		if !yield(t, cost) {
			return false
		}
		ib.Reuse(t)
		cost = 0
	}
	return true
}

// SweepSerial builds the store's full GST in bounded segments, calling
// yield with each segment's forest in ascending key order; the next
// segment reuses the forest's storage once yield returns. The union of yielded forests is the
// serial tree, which is what a sweep without a budget yields whole —
// consume-and-drop is what makes serial clustering run in
// O(SpillBytes) tree memory.
func SweepSerial(st seq.Seqs, cfg Config, yield func(*suffixtree.Tree) bool) {
	sweepFiltered(st, cfg.withDefaults(), nil, func(t *suffixtree.Tree, _ float64) bool { return yield(t) })
}

// Forests is the one way a rank's GST reaches a consumer: it calls
// yield with each forest of the buckets the splitter partition assigned
// to owner rank r, and the modeled compute cost of building it. This
// rank's own range of a resident build is the tree Build left resident,
// already paid for. Anything else — any range of a spilling build, the
// own range of a rank whose redistribution a death severed, a dead
// rank's range during adoption — is swept from the store: bounded
// segments under Cfg.SpillBytes, one segment without a budget, each
// forest's storage reused by the next once yield returns. Returns false
// if yield stopped the sweep.
func (l *Local) Forests(st seq.Seqs, r int, yield func(*suffixtree.Tree, float64) bool) bool {
	if l.tree != nil && r == l.rank {
		return yield(l.tree, 0)
	}
	return sweepFiltered(st, l.Cfg, ownedBy(l.Splitters, l.Cfg.FirstOwner, r), yield)
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
