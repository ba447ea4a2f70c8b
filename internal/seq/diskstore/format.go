// Package diskstore is the out-of-core sequence store: the same 2n
// sequence-ID contract as the in-memory seq.Store, but with the bases
// 2-bit packed in an append-only data file and paged in through a
// small bounded LRU of block buffers. Only the fixed-width index, the
// fragment names and the 'N'-mask exception lists live in RAM —
// O(fragments + masked positions), independent of total bases — so
// clustering a genome is no longer capped by how many bases fit in
// memory (the paper's space-critical regime, Section 3).
//
// On-disk layout (two files in a directory):
//
//	store.data   packed bases, fragment i at entries[i].dataOff,
//	             ceil(baseLen/4) bytes, 4 bases per byte, base j in
//	             bit 2*(j%4) of byte j/4; 'N' packs as 0 with the
//	             position recorded in the mask blob
//	store.idx    header | n fixed-width entries | names blob | mask blob
//
// Index header (52 bytes, little endian):
//
//	magic "asq1" | version u32 | n u64 | totalBases u64 |
//	dataSize u64 | namesLen u64 | maskLen u64 | bodyCRC u32 (CRC32C
//	of everything after the header)
//
// Entry (36 bytes): dataOff u64 | baseLen u32 | nameOff u64 |
// nameLen u32 | maskOff u64 | maskLen u32. Mask lists are uvarint
// deltas: first masked position absolute, then successive gaps (≥1),
// validated strictly increasing and < baseLen at Open.
//
// The data file is written first and fsynced; the index is published
// by temp-file + rename, so a torn write leaves either no index (the
// store does not exist yet) or a complete, checksummed one. Open
// validates the header, the index body CRC, the data-file size and
// every entry's bounds before returning, so a truncated or corrupt
// store is refused up front rather than misread later.
package diskstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

const (
	// DataFile and IndexFile are the two store members inside the dir.
	DataFile  = "store.data"
	IndexFile = "store.idx"

	magic      = "asq1"
	version    = 1
	headerSize = 4 + 4 + 8 + 8 + 8 + 8 + 8 + 4
	entrySize  = 8 + 4 + 8 + 4 + 8 + 4
)

// castagnoli is the CRC32C table shared by writer and reader.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// header is the decoded fixed part of the index file.
type header struct {
	n          uint64
	totalBases uint64
	dataSize   uint64
	namesLen   uint64
	maskLen    uint64
	bodyCRC    uint32
}

func (h header) encode() []byte {
	b := make([]byte, headerSize)
	copy(b, magic)
	binary.LittleEndian.PutUint32(b[4:], version)
	binary.LittleEndian.PutUint64(b[8:], h.n)
	binary.LittleEndian.PutUint64(b[16:], h.totalBases)
	binary.LittleEndian.PutUint64(b[24:], h.dataSize)
	binary.LittleEndian.PutUint64(b[32:], h.namesLen)
	binary.LittleEndian.PutUint64(b[40:], h.maskLen)
	binary.LittleEndian.PutUint32(b[48:], h.bodyCRC)
	return b
}

func decodeHeader(b []byte) (header, error) {
	var h header
	if len(b) < headerSize {
		return h, fmt.Errorf("diskstore: index truncated: %d bytes, want ≥ %d header bytes", len(b), headerSize)
	}
	if string(b[:4]) != magic {
		return h, fmt.Errorf("diskstore: bad index magic %q", b[:4])
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != version {
		return h, fmt.Errorf("diskstore: unsupported index version %d", v)
	}
	h.n = binary.LittleEndian.Uint64(b[8:])
	h.totalBases = binary.LittleEndian.Uint64(b[16:])
	h.dataSize = binary.LittleEndian.Uint64(b[24:])
	h.namesLen = binary.LittleEndian.Uint64(b[32:])
	h.maskLen = binary.LittleEndian.Uint64(b[40:])
	h.bodyCRC = binary.LittleEndian.Uint32(b[48:])
	return h, nil
}

// entry is one fragment's index record.
type entry struct {
	dataOff uint64
	baseLen uint32
	nameOff uint64
	nameLen uint32
	maskOff uint64
	maskLen uint32
}

func (e entry) encode(b []byte) {
	binary.LittleEndian.PutUint64(b[0:], e.dataOff)
	binary.LittleEndian.PutUint32(b[8:], e.baseLen)
	binary.LittleEndian.PutUint64(b[12:], e.nameOff)
	binary.LittleEndian.PutUint32(b[20:], e.nameLen)
	binary.LittleEndian.PutUint64(b[24:], e.maskOff)
	binary.LittleEndian.PutUint32(b[32:], e.maskLen)
}

func decodeEntry(b []byte) entry {
	return entry{
		dataOff: binary.LittleEndian.Uint64(b[0:]),
		baseLen: binary.LittleEndian.Uint32(b[8:]),
		nameOff: binary.LittleEndian.Uint64(b[12:]),
		nameLen: binary.LittleEndian.Uint32(b[20:]),
		maskOff: binary.LittleEndian.Uint64(b[24:]),
		maskLen: binary.LittleEndian.Uint32(b[32:]),
	}
}

// packedLen returns the number of data-file bytes holding baseLen
// 2-bit packed bases.
func packedLen(baseLen uint32) uint64 { return (uint64(baseLen) + 3) / 4 }
