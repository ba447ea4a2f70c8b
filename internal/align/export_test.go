package align

// BoundRejects reports whether the identity bound alone rejects the
// anchored pair under c, for the external pair-stream benchmark.
func BoundRejects(a, b []byte, apos, bpos, mlen, band int, c Criteria) bool {
	w, ok := identityWeights(c.MinIdentity, len(a)+len(b))
	if !ok {
		return false
	}
	return !mayPass(a, b, apos, bpos, mlen, band, w)
}
