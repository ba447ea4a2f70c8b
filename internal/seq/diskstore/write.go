package diskstore

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/durable"
	"repro/internal/seq"
)

// Write materializes frags as a disk store under dir (created if
// missing). The data file is streamed fragment by fragment and staged
// before the index, then one directory sync publishes both durably
// (internal/durable), so a crash or power loss mid-write never leaves
// a valid-looking but torn store. Writing is a pure function of the
// fragment bases and names: the same input always produces
// byte-identical store files, which is what lets a resumed pipeline
// verify the store against its manifest checksum.
func Write(dir string, frags []*seq.Fragment) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	entries := make([]entry, len(frags))
	var names, maskBlob []byte
	var dataOff, totalBases uint64
	err := durable.Stage(filepath.Join(dir, DataFile), func(w io.Writer) error {
		bw := bufio.NewWriterSize(w, 1<<16)
		var packBuf []byte
		for i, f := range frags {
			if len(f.Bases) > 1<<31-1 {
				return fmt.Errorf("diskstore: fragment %d is %d bases, beyond the u32 entry limit", i, len(f.Bases))
			}
			packed, masked := packBases(packBuf[:0], f.Bases)
			packBuf = packed
			if _, err := bw.Write(packed); err != nil {
				return err
			}
			e := &entries[i]
			e.dataOff = dataOff
			e.baseLen = uint32(len(f.Bases))
			e.nameOff = uint64(len(names))
			e.nameLen = uint32(len(f.Name))
			e.maskOff = uint64(len(maskBlob))
			names = append(names, f.Name...)
			maskBlob = encodeMask(maskBlob, masked)
			e.maskLen = uint32(uint64(len(maskBlob)) - e.maskOff)
			dataOff += uint64(len(packed))
			totalBases += uint64(len(f.Bases))
		}
		return bw.Flush()
	})
	if err != nil {
		return err
	}

	h := header{
		n:          uint64(len(frags)),
		totalBases: totalBases,
		dataSize:   dataOff,
		namesLen:   uint64(len(names)),
		maskLen:    uint64(len(maskBlob)),
	}
	body := make([]byte, 0, len(frags)*entrySize+len(names)+len(maskBlob))
	var eb [entrySize]byte
	for i := range entries {
		entries[i].encode(eb[:])
		body = append(body, eb[:]...)
	}
	body = append(body, names...)
	body = append(body, maskBlob...)
	h.bodyCRC = crcBody(body)

	err = durable.Stage(filepath.Join(dir, IndexFile), func(w io.Writer) error {
		if _, err := w.Write(h.encode()); err != nil {
			return err
		}
		_, err := w.Write(body)
		return err
	})
	if err != nil {
		return err
	}
	return durable.SyncDir(dir)
}
