package diskstore

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/seq"
)

// sampleFrags is a small fixed fragment set hitting the format's edge
// cases: empty, length 1..5 (every packing remainder), all-N, N at
// both ends, and a fragment longer than one cache block's worth of
// packed bases when the cache budget is minimal.
func sampleFrags() []*seq.Fragment {
	long := bytes.Repeat([]byte("ACGTN"), 200)
	return []*seq.Fragment{
		{Name: "empty", Bases: []byte{}},
		{Name: "a", Bases: []byte("A")},
		{Name: "tt", Bases: []byte("TT")},
		{Name: "odd3", Bases: []byte("GCN")},
		{Name: "even4", Bases: []byte("ACGT")},
		{Name: "odd5", Bases: []byte("NACGT")},
		{Name: "allN", Bases: []byte("NNNNNNN")},
		{Name: "edges", Bases: []byte("NACGTACGTN")},
		{Name: "long acgtn run", Bases: long},
	}
}

// writeSample materializes sampleFrags in a temp dir and returns the
// dir plus the raw index and data bytes.
func writeSample(t *testing.T) (dir string, idx, data []byte) {
	t.Helper()
	dir = t.TempDir()
	if err := Write(dir, sampleFrags()); err != nil {
		t.Fatalf("Write: %v", err)
	}
	idx, err := os.ReadFile(filepath.Join(dir, IndexFile))
	if err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(filepath.Join(dir, DataFile))
	if err != nil {
		t.Fatal(err)
	}
	return dir, idx, data
}

// patchCRC recomputes the body CRC after a test mangles index bytes,
// so corruption seeds exercise the deep validation paths rather than
// bouncing off the checksum.
func patchCRC(idx []byte) {
	binary.LittleEndian.PutUint32(idx[48:], crcBody(idx[headerSize:]))
}

// randomFrags draws nf fragments with random lengths (including odd
// remainders), ~5% masked positions, and occasional pathological
// shapes, all from a fixed seed.
func randomFrags(rng *rand.Rand, nf int) []*seq.Fragment {
	frags := make([]*seq.Fragment, nf)
	for i := range frags {
		n := rng.Intn(258)
		switch rng.Intn(10) {
		case 0:
			n = 0
		case 1:
			n = 1 + rng.Intn(4)
		}
		b := make([]byte, n)
		for j := range b {
			if rng.Float64() < 0.05 {
				b[j] = seq.Masked
			} else {
				b[j] = seq.Base(rng.Intn(4))
			}
		}
		frags[i] = &seq.Fragment{Name: string(rune('a'+i%26)) + "frag", Bases: b}
	}
	return frags
}

// TestCodecRoundTrip: the 2-bit codec plus mask exceptions must
// round-trip any {A,C,G,T,N} sequence exactly, at every length mod 4.
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, f := range append(sampleFrags(), randomFrags(rng, 200)...) {
		packed, masked := packBases(nil, f.Bases)
		if want := int(packedLen(uint32(len(f.Bases)))); len(packed) != want {
			t.Fatalf("%s: packed %d bytes, want %d", f.Name, len(packed), want)
		}
		maskBlob := encodeMask(nil, masked)
		if _, err := validateMask(maskBlob, uint32(len(f.Bases))); err != nil {
			t.Fatalf("%s: own mask blob rejected: %v", f.Name, err)
		}
		out := make([]byte, len(f.Bases))
		unpackBases(out, packed)
		applyMask(out, maskBlob)
		if !bytes.Equal(out, f.Bases) {
			t.Fatalf("%s: round trip changed bases:\n got %q\nwant %q", f.Name, out, f.Bases)
		}
	}
}

// TestStoreEquivalence: every seq.Seqs accessor of the disk store must
// agree byte-for-byte with the in-memory Store over all 2n sequence
// IDs, on randomized inputs, in random access order, with a one-block
// cache forcing constant eviction.
func TestStoreEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 5; round++ {
		frags := randomFrags(rng, 1+rng.Intn(120))
		mem := seq.NewStore(frags)
		disk, err := Create(t.TempDir(), frags, Options{CacheBytes: 1})
		if err != nil {
			t.Fatalf("round %d: Create: %v", round, err)
		}
		if disk.N() != mem.N() || disk.NumSeqs() != mem.NumSeqs() || disk.TotalBases() != mem.TotalBases() {
			t.Fatalf("round %d: shape mismatch: N %d/%d NumSeqs %d/%d TotalBases %d/%d",
				round, disk.N(), mem.N(), disk.NumSeqs(), mem.NumSeqs(), disk.TotalBases(), mem.TotalBases())
		}
		order := rng.Perm(mem.NumSeqs())
		for _, sid := range order {
			if got, want := disk.Seq(sid), mem.Seq(sid); !bytes.Equal(got, want) {
				t.Fatalf("round %d: Seq(%d):\n got %q\nwant %q", round, sid, got, want)
			}
			if got, want := disk.SeqLen(sid), mem.SeqLen(sid); got != want {
				t.Fatalf("round %d: SeqLen(%d) = %d, want %d", round, sid, got, want)
			}
		}
		for i := 0; i < mem.N(); i++ {
			if got, want := disk.FragName(i), mem.FragName(i); got != want {
				t.Fatalf("round %d: FragName(%d) = %q, want %q", round, i, got, want)
			}
		}
		hits, misses := disk.CacheStats()
		if hits+misses == 0 && mem.TotalBases() > 0 {
			t.Fatalf("round %d: cache never touched despite %d bases read", round, mem.TotalBases())
		}
		disk.Close()
	}
}

// TestWriteDeterministic: the store files must be a pure function of
// the fragments — the resume path verifies them against manifest
// checksums.
func TestWriteDeterministic(t *testing.T) {
	_, idx1, data1 := writeSample(t)
	_, idx2, data2 := writeSample(t)
	if !bytes.Equal(idx1, idx2) || !bytes.Equal(data1, data2) {
		t.Fatal("two writes of the same fragments produced different bytes")
	}
}

// TestOpenRejectsCorruption: a representative set of mangled stores
// must be refused at Open, before any Seq call can go wrong.
func TestOpenRejectsCorruption(t *testing.T) {
	_, idx, data := writeSample(t)
	cases := []struct {
		name   string
		mangle func(idx, data []byte) (mi, md []byte)
	}{
		{"truncated header", func(i, d []byte) ([]byte, []byte) { return i[:headerSize-4], d }},
		{"bad magic", func(i, d []byte) ([]byte, []byte) { i[0] = 'X'; return i, d }},
		{"bad version", func(i, d []byte) ([]byte, []byte) { i[4] = 99; return i, d }},
		{"flipped body byte", func(i, d []byte) ([]byte, []byte) { i[headerSize+3] ^= 0x40; return i, d }},
		{"truncated entries", func(i, d []byte) ([]byte, []byte) { return i[:headerSize+entrySize], d }},
		{"entry offset oob", func(i, d []byte) ([]byte, []byte) {
			binary.LittleEndian.PutUint64(i[headerSize+2*entrySize:], 1<<60)
			patchCRC(i)
			return i, d
		}},
		{"name range oob", func(i, d []byte) ([]byte, []byte) {
			binary.LittleEndian.PutUint32(i[headerSize+20:], 1<<30)
			patchCRC(i)
			return i, d
		}},
		{"mask position oob", func(i, d []byte) ([]byte, []byte) {
			// Fragment "a" (len 1, no mask) gains a mask entry pointing
			// into the blob at a position ≥ its length.
			binary.LittleEndian.PutUint32(i[headerSize+entrySize+32:], 1)
			patchCRC(i)
			return i, d
		}},
		{"total bases mismatch", func(i, d []byte) ([]byte, []byte) {
			binary.LittleEndian.PutUint64(i[16:], binary.LittleEndian.Uint64(i[16:])+1)
			patchCRC(i)
			return i, d
		}},
		{"torn final data block", func(i, d []byte) ([]byte, []byte) { return i, d[:len(d)-1] }},
		{"extended data file", func(i, d []byte) ([]byte, []byte) { return i, append(d, 0) }},
		{"empty index", func(i, d []byte) ([]byte, []byte) { return nil, d }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mi, md := tc.mangle(bytes.Clone(idx), bytes.Clone(data))
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, IndexFile), mi, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, DataFile), md, 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := Open(dir, Options{})
			if err == nil {
				st.Close()
				t.Fatal("Open accepted a corrupt store")
			}
		})
	}
}

// TestConcurrentReaders: Seq must be safe under concurrent access with
// a tiny cache (assembly workers and in-process ranks share a store).
func TestConcurrentReaders(t *testing.T) {
	frags := sampleFrags()
	mem := seq.NewStore(frags)
	disk, err := Create(t.TempDir(), frags, Options{CacheBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 500; i++ {
				sid := rng.Intn(disk.NumSeqs())
				if !bytes.Equal(disk.Seq(sid), mem.Seq(sid)) {
					done <- os.ErrInvalid
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal("concurrent reader saw wrong bases")
		}
	}
}

// multiBlockStore writes 2000 random 400-base reads, about 200 KB of
// packed bases or four cache blocks, and opens them behind a one-block
// cache, so reads of far-apart fragments miss every time.
func multiBlockStore(t *testing.T) (*Store, *seq.Store) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	frags := make([]*seq.Fragment, 2000)
	for i := range frags {
		b := make([]byte, 400)
		for j := range b {
			b[j] = seq.Base(rng.Intn(4))
		}
		frags[i] = &seq.Fragment{Name: "r", Bases: b}
	}
	disk, err := Create(t.TempDir(), frags, Options{CacheBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	return disk, seq.NewStore(frags)
}

// TestConcurrentMissesAcrossBlocks: readers that keep evicting each
// other's block from a one-block cache still see the right bases (and
// under -race, no reader copies out of a buffer a miss is refilling).
func TestConcurrentMissesAcrossBlocks(t *testing.T) {
	disk, mem := multiBlockStore(t)
	done := make(chan bool, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			rng := rand.New(rand.NewSource(int64(g)))
			ok := true
			for i := 0; i < 300 && ok; i++ {
				sid := rng.Intn(disk.NumSeqs())
				ok = bytes.Equal(disk.Seq(sid), mem.Seq(sid))
			}
			done <- ok
		}(g)
	}
	for g := 0; g < 4; g++ {
		if !<-done {
			t.Fatal("a reader saw wrong bases")
		}
	}
	if _, misses := disk.CacheStats(); misses < 100 {
		t.Fatalf("only %d misses: the readers did not contend for the block", misses)
	}
}

// TestMissReusesEvictedBlock: a miss reads into the buffer of the block
// it evicts, so alternating misses on a one-block cache allocate next
// to nothing, not a fresh 64 KiB block each.
func TestMissReusesEvictedBlock(t *testing.T) {
	disk, _ := multiBlockStore(t)
	first, last := 0, disk.N()-1
	buf := disk.AppendSeq(nil, first)
	const rounds = 200
	_, missesBefore := disk.CacheStats()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		buf = disk.AppendSeq(buf[:0], last)
		buf = disk.AppendSeq(buf[:0], first)
	}
	runtime.ReadMemStats(&after)
	_, missesAfter := disk.CacheStats()
	misses := missesAfter - missesBefore
	if misses != 2*rounds {
		t.Fatalf("%d misses over %d alternating reads, want every read to miss", misses, 2*rounds)
	}
	perMiss := float64(after.TotalAlloc-before.TotalAlloc) / float64(misses)
	t.Logf("%.1f bytes allocated per miss (block %d bytes)", perMiss, blockSize)
	if perMiss > blockSize/16 {
		t.Errorf("%.0f bytes allocated per miss: misses allocate blocks instead of reusing the evicted one", perMiss)
	}
}

var _ seq.Seqs = (*Store)(nil)
var _ seq.Seqs = (*seq.Store)(nil)
