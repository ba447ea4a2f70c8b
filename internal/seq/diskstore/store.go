package diskstore

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/seq"
)

// DefaultCacheBytes is the block-cache budget when the caller does not
// set one: 16 blocks of 64 KiB.
const DefaultCacheBytes = 1 << 20

// Options configures Open.
type Options struct {
	// CacheBytes bounds the block cache (default DefaultCacheBytes).
	// The cache holds ceil(CacheBytes/64KiB) buffers, so this — not
	// the input size — is the store's resident base memory.
	CacheBytes int64
}

// Store is the read side of a disk store. It implements seq.Seqs: the
// index, names and mask exception lists are resident (O(fragments +
// masked positions)); the packed bases are paged in on demand through
// the bounded LRU block cache. Seq returns a fresh slice per call, so
// concurrent readers (assembly workers, in-process ranks) are safe.
type Store struct {
	f          *os.File
	entries    []entry
	names      []byte
	mask       []byte
	totalBases int
	cache      *blockCache
}

// Open validates and opens the store written under dir. The index
// header, body CRC, data-file size and every entry's bounds (offsets,
// name/mask ranges, mask varint lists) are checked before the first
// Seq call, so a truncated or corrupt store is refused here rather
// than misread later.
func Open(dir string, opts Options) (*Store, error) {
	idx, err := os.ReadFile(filepath.Join(dir, IndexFile))
	if err != nil {
		return nil, err
	}
	h, err := decodeHeader(idx)
	if err != nil {
		return nil, err
	}
	body := idx[headerSize:]
	if h.n > uint64(len(body))/entrySize {
		return nil, fmt.Errorf("diskstore: index claims %d fragments, body holds at most %d", h.n, uint64(len(body))/entrySize)
	}
	if h.namesLen > uint64(len(body)) || h.maskLen > uint64(len(body)) {
		return nil, fmt.Errorf("diskstore: blob lengths exceed index size")
	}
	if want := h.n*entrySize + h.namesLen + h.maskLen; uint64(len(body)) != want {
		return nil, fmt.Errorf("diskstore: index body is %d bytes, header implies %d", len(body), want)
	}
	if got := crcBody(body); got != h.bodyCRC {
		return nil, fmt.Errorf("diskstore: index body CRC mismatch: got %08x, want %08x", got, h.bodyCRC)
	}

	names := body[h.n*entrySize : h.n*entrySize+h.namesLen]
	mask := body[h.n*entrySize+h.namesLen:]
	entries := make([]entry, h.n)
	var sumBases uint64
	for i := range entries {
		e := decodeEntry(body[uint64(i)*entrySize:])
		if e.dataOff > h.dataSize || packedLen(e.baseLen) > h.dataSize-e.dataOff {
			return nil, fmt.Errorf("diskstore: entry %d bases [%d, +%d) out of data range %d", i, e.dataOff, packedLen(e.baseLen), h.dataSize)
		}
		if e.nameOff > h.namesLen || uint64(e.nameLen) > h.namesLen-e.nameOff {
			return nil, fmt.Errorf("diskstore: entry %d name out of range", i)
		}
		if e.maskOff > h.maskLen || uint64(e.maskLen) > h.maskLen-e.maskOff {
			return nil, fmt.Errorf("diskstore: entry %d mask out of range", i)
		}
		if _, err := validateMask(mask[e.maskOff:e.maskOff+uint64(e.maskLen)], e.baseLen); err != nil {
			return nil, fmt.Errorf("diskstore: entry %d: %w", i, err)
		}
		sumBases += uint64(e.baseLen)
		entries[i] = e
	}
	if sumBases != h.totalBases {
		return nil, fmt.Errorf("diskstore: entries sum to %d bases, header says %d", sumBases, h.totalBases)
	}
	if h.totalBases > 1<<62 {
		return nil, fmt.Errorf("diskstore: implausible total bases %d", h.totalBases)
	}

	f, err := os.Open(filepath.Join(dir, DataFile))
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if uint64(st.Size()) != h.dataSize {
		f.Close()
		return nil, fmt.Errorf("diskstore: data file is %d bytes, index expects %d (torn or truncated store)", st.Size(), h.dataSize)
	}

	cacheBytes := opts.CacheBytes
	if cacheBytes <= 0 {
		cacheBytes = DefaultCacheBytes
	}
	return &Store{
		f:          f,
		entries:    entries,
		names:      names,
		mask:       mask,
		totalBases: int(h.totalBases),
		cache:      newBlockCache(f, int64(h.dataSize), cacheBytes),
	}, nil
}

// Create writes frags under dir and opens the result — the common
// "materialize this run's store" path.
func Create(dir string, frags []*seq.Fragment, opts Options) (*Store, error) {
	if err := Write(dir, frags); err != nil {
		return nil, err
	}
	return Open(dir, opts)
}

// Close releases the data-file handle. Seq must not be called after.
func (s *Store) Close() error { return s.f.Close() }

// N returns the number of fragments.
func (s *Store) N() int { return len(s.entries) }

// NumSeqs returns the size of the sequence index space (2n).
func (s *Store) NumSeqs() int { return 2 * len(s.entries) }

// TotalBases returns the total forward-strand length in bases.
func (s *Store) TotalBases() int { return s.totalBases }

// SeqLen returns the length of sequence sid in bases.
func (s *Store) SeqLen(sid int) int {
	return int(s.entries[s.fragID(sid)].baseLen)
}

// FragName returns the name of fragment i.
func (s *Store) FragName(i int) string {
	e := s.entries[i]
	return string(s.names[e.nameOff : e.nameOff+uint64(e.nameLen)])
}

// Seq returns the bases of sequence sid, decoding the 2-bit packed
// forward strand from the block cache, re-applying the 'N' mask, and
// reverse-complementing in place for RC IDs. The result is freshly
// allocated per call and safe for the caller to hold.
func (s *Store) Seq(sid int) []byte { return s.AppendSeq(nil, sid) }

// AppendSeq appends the bases of sequence sid to dst and returns the
// extended slice: Seq into memory the caller reuses.
func (s *Store) AppendSeq(dst []byte, sid int) []byte {
	fid := s.fragID(sid)
	e := s.entries[fid]
	at := len(dst)
	dst = slices.Grow(dst, int(e.baseLen))[:at+int(e.baseLen)]
	out := dst[at:]
	if e.baseLen > 0 {
		var small [256]byte // a read of up to 1 kbp unpacks from the stack
		packed := small[:0]
		if n := packedLen(e.baseLen); n <= uint64(len(small)) {
			packed = small[:n]
		} else {
			packed = make([]byte, n)
		}
		if err := s.cache.readAt(packed, int64(e.dataOff)); err != nil {
			// Bounds were validated at Open; a failure here is an I/O
			// error on a file that existed moments ago — unrecoverable
			// for a read-path with no error channel.
			panic(fmt.Sprintf("diskstore: read bases of fragment %d: %v", fid, err))
		}
		unpackBases(out, packed)
		applyMask(out, s.mask[e.maskOff:e.maskOff+uint64(e.maskLen)])
	}
	if sid >= len(s.entries) {
		seq.ReverseComplementInPlace(out)
	}
	return dst
}

// fragID maps a sequence ID to its fragment ID.
func (s *Store) fragID(sid int) int {
	if n := len(s.entries); sid >= n {
		return sid - n
	}
	return sid
}

// CacheStats reports block-cache hits and misses since Open.
func (s *Store) CacheStats() (hits, misses uint64) { return s.cache.stats() }

func crcBody(body []byte) uint32 { return crc32.Checksum(body, castagnoli) }
