package seq

// Kmer is a 2-bit packed k-mer, k ≤ 31. The most significant bits hold
// the first base, so numeric order equals lexicographic order.
type Kmer uint64

// MaxK is the largest k that fits a Kmer with a validity guard bit.
const MaxK = 31

// PackKmer packs s[i:i+k] into a Kmer. ok is false if the window
// contains a masked base or runs past the end of s.
func PackKmer(s []byte, i, k int) (km Kmer, ok bool) {
	if i < 0 || i+k > len(s) || k > MaxK {
		return 0, false
	}
	var v Kmer
	for j := i; j < i+k; j++ {
		c := code[s[j]]
		if c < 0 {
			return 0, false
		}
		v = v<<2 | Kmer(c)
	}
	return v, true
}

// UnpackKmer expands a packed k-mer back into bases.
func UnpackKmer(km Kmer, k int) []byte {
	out := make([]byte, k)
	for i := k - 1; i >= 0; i-- {
		out[i] = Base(int(km & 3))
		km >>= 2
	}
	return out
}

// KmerRC returns the reverse complement of a packed k-mer.
func KmerRC(km Kmer, k int) Kmer {
	var rc Kmer
	for i := 0; i < k; i++ {
		rc = rc<<2 | (km & 3) ^ 3
		km >>= 2
	}
	return rc
}

// CanonicalKmer returns the lexicographically smaller of a k-mer and its
// reverse complement, the standard strand-independent key.
func CanonicalKmer(km Kmer, k int) Kmer {
	rc := KmerRC(km, k)
	if rc < km {
		return rc
	}
	return km
}

// EachKmer calls fn for every unmasked k-mer window of s with its start
// position. Windows containing masked bases are skipped in O(1) amortized
// time per position by tracking the last masked byte seen.
func EachKmer(s []byte, k int, fn func(pos int, km Kmer)) {
	if k <= 0 || k > MaxK || len(s) < k {
		return
	}
	mask := Kmer(1)<<(2*uint(k)) - 1
	var v Kmer
	run := 0 // number of consecutive unmasked bases ending at current pos
	for i, b := range s {
		c := code[b]
		if c < 0 {
			run = 0
			v = 0
			continue
		}
		v = (v<<2 | Kmer(c)) & mask
		run++
		if run >= k {
			fn(i-k+1, v)
		}
	}
}
