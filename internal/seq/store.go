package seq

// Fragment is one sequencing read with optional per-base quality and the
// ground-truth origin recorded by the simulator (nil for real data).
type Fragment struct {
	ID    int
	Name  string
	Bases []byte
	Qual  []byte // phred scores, same length as Bases, may be nil

	Origin *Origin
}

// Origin records where a simulated fragment was sampled from; used only
// for validation, never by the assembly algorithms themselves.
type Origin struct {
	Source  string // source sequence name (chromosome, species, BAC, ...)
	Start   int    // 0-based start on the source's forward strand
	End     int    // exclusive end
	Reverse bool   // true if the read is the reverse complement strand
	Region  int    // index of the gene island / region sampled, -1 if none
}

// Len returns the fragment length in bases.
func (f *Fragment) Len() int { return len(f.Bases) }

// Seqs is the sequence-ID contract every algorithmic layer reads
// through: n fragments exposed as 2n sequences, IDs 0..n-1 forward and
// n..2n-1 their reverse complements. It is implemented by the
// in-memory Store and by the disk-backed diskstore.Store, so the GST,
// pair generation, clustering and assembly are agnostic to whether the
// bases live in RAM or are paged in from disk.
type Seqs interface {
	// N returns the number of fragments.
	N() int
	// NumSeqs returns the size of the sequence index space (2n).
	NumSeqs() int
	// TotalBases returns the total forward-strand length in bases.
	TotalBases() int
	// Seq returns the bases of sequence sid. The returned slice must
	// not be mutated; disk-backed implementations may return a fresh
	// allocation per call.
	Seq(sid int) []byte
	// SeqLen returns len(Seq(sid)) without materializing the bases.
	SeqLen(sid int) int
	// FragName returns the name of fragment i.
	FragName(i int) string
}

// Store holds the input fragments of a clustering run and exposes a
// unified sequence index space of size 2n: sequence IDs 0..n-1 are the
// fragments in forward orientation and n..2n-1 their reverse
// complements, exactly the string set the paper builds its generalized
// suffix tree over (Section 5).
type Store struct {
	frags []*Fragment
	rc    [][]byte
	total int // total forward bases
}

// NewStore builds a store over frags, assigning IDs 0..n-1 in order and
// precomputing reverse complements.
func NewStore(frags []*Fragment) *Store {
	st := &Store{
		frags: frags,
		rc:    make([][]byte, len(frags)),
	}
	for i, f := range frags {
		f.ID = i
		st.rc[i] = ReverseComplement(f.Bases)
		st.total += len(f.Bases)
	}
	return st
}

// StoreFromRecords wraps plain FASTA records into a store.
func StoreFromRecords(recs []Record) *Store {
	frags := make([]*Fragment, len(recs))
	for i, r := range recs {
		frags[i] = &Fragment{Name: r.Name, Bases: r.Bases}
	}
	return NewStore(frags)
}

// N returns the number of fragments.
func (st *Store) N() int { return len(st.frags) }

// NumSeqs returns the size of the sequence index space (2n).
func (st *Store) NumSeqs() int { return 2 * len(st.frags) }

// TotalBases returns the total forward-strand length in bases.
func (st *Store) TotalBases() int { return st.total }

// Fragment returns fragment i.
func (st *Store) Fragment(i int) *Fragment { return st.frags[i] }

// Fragments returns the underlying fragment slice (shared, do not mutate).
func (st *Store) Fragments() []*Fragment { return st.frags }

// Seq returns the bases of sequence sid: the forward fragment for
// sid < n, its reverse complement otherwise. The returned slice is
// shared and must not be mutated.
func (st *Store) Seq(sid int) []byte {
	n := len(st.frags)
	if sid < n {
		return st.frags[sid].Bases
	}
	return st.rc[sid-n]
}

// SeqLen returns the length of sequence sid in bases.
func (st *Store) SeqLen(sid int) int { return len(st.Seq(sid)) }

// FragName returns the name of fragment i.
func (st *Store) FragName(i int) string { return st.frags[i].Name }
