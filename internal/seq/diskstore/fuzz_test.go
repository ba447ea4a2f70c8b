package diskstore

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// writeStorePair lays idx/data down as a store directory.
func writeStorePair(t *testing.T, idx, data []byte) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, IndexFile), idx, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, DataFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// drainStore exercises every accessor of an Open-accepted store; any
// out-of-bounds access or panic is a fuzz finding.
func drainStore(t *testing.T, st *Store) {
	t.Helper()
	defer st.Close()
	total := 0
	for sid := 0; sid < st.NumSeqs(); sid++ {
		b := st.Seq(sid)
		if len(b) != st.SeqLen(sid) {
			t.Fatalf("Seq(%d) length %d, SeqLen says %d", sid, len(b), st.SeqLen(sid))
		}
		if sid < st.N() {
			total += len(b)
		}
	}
	if total != st.TotalBases() {
		t.Fatalf("forward seqs sum to %d bases, TotalBases says %d", total, st.TotalBases())
	}
	for i := 0; i < st.N(); i++ {
		_ = st.FragName(i)
	}
}

// FuzzOpenIndex: with the data file held fixed, an arbitrary index is
// either refused by Open or yields a store whose every accessor stays
// in bounds — no panics, no overreads, internally consistent totals.
func FuzzOpenIndex(f *testing.F) {
	_, idx, data := fuzzSample(f)
	f.Add(idx)
	f.Add(idx[:headerSize-4])
	f.Add(idx[:headerSize+entrySize])
	mangled := append([]byte(nil), idx...)
	binary.LittleEndian.PutUint64(mangled[headerSize:], 1<<60)
	binary.LittleEndian.PutUint32(mangled[48:], crcBody(mangled[headerSize:]))
	f.Add(mangled)
	f.Fuzz(func(t *testing.T, fuzzedIdx []byte) {
		dir := writeStorePair(t, fuzzedIdx, data)
		st, err := Open(dir, Options{CacheBytes: 1})
		if err != nil {
			return
		}
		drainStore(t, st)
	})
}

// FuzzReadData: with a valid index held fixed, arbitrary data-file
// bytes (truncated, extended, bit-flipped, torn final block) must be
// either refused at Open or decoded without panic or overread — bases
// may be garbage, access may not be.
func FuzzReadData(f *testing.F) {
	_, idx, data := fuzzSample(f)
	f.Add(data)
	f.Add(data[:len(data)-1])
	f.Add(append(append([]byte(nil), data...), 0))
	f.Add(make([]byte, len(data)))
	f.Fuzz(func(t *testing.T, fuzzedData []byte) {
		dir := writeStorePair(t, idx, fuzzedData)
		st, err := Open(dir, Options{CacheBytes: 1})
		if err != nil {
			return
		}
		drainStore(t, st)
	})
}

// fuzzSample writes the shared sample store once per fuzz target.
func fuzzSample(f *testing.F) (dir string, idx, data []byte) {
	f.Helper()
	dir = f.TempDir()
	if err := Write(dir, sampleFrags()); err != nil {
		f.Fatal(err)
	}
	var err error
	idx, err = os.ReadFile(filepath.Join(dir, IndexFile))
	if err != nil {
		f.Fatal(err)
	}
	data, err = os.ReadFile(filepath.Join(dir, DataFile))
	if err != nil {
		f.Fatal(err)
	}
	return dir, idx, data
}
