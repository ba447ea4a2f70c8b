package cluster

import (
	"errors"
	"fmt"

	"repro/internal/pairgen"
	"repro/internal/wire"
)

// Message tags of the master–worker protocol (Fig. 6): workers send
// reports (new pairs NP + alignment results AR); the master sends work
// allocations (batch AW + request size r) and finally done. Fault
// recovery adds no message: the GST portions of dead ranks reach a
// surviving worker on a work allocation (work.adopt).
const (
	tagReport = 1
	tagWork   = 2
	tagDone   = 3
)

// alignResult is one AR entry: the fragment pair and the outcome of
// its overlap test.
type alignResult struct {
	fa, fb   int32
	accepted bool
}

// report is a worker → master message.
type report struct {
	pairs   []pairgen.Pair // NP: newly generated promising pairs
	results []alignResult  // AR: outcomes for the last allocated batch
	passive bool           // no more pairs to generate
	// fail carries a worker-side protocol error (e.g. an undecodable
	// work message) so the master can abort the run cleanly instead of
	// deadlocking on a silently departed worker. Encoded only when
	// non-empty so fault-free runs keep byte-identical messages.
	fail string
}

// work is a master → worker message.
type work struct {
	batch []pairgen.Pair // AW: pairs to align
	r     int            // pairs to generate for the next report
	// adopt lists ranks whose GST portions the receiver must rebuild
	// and generate from (fault recovery, piggybacked on a work reply).
	// Encoded only when non-empty so a fault-free run's messages are
	// byte-identical to the fault-unaware protocol.
	adopt []int
}

func encodePairs(w *wire.Buffer, ps []pairgen.Pair) {
	w.PutUint(uint64(len(ps)))
	for _, p := range ps {
		w.PutInt(int(p.ASid))
		w.PutInt(int(p.BSid))
		w.PutInt(int(p.APos))
		w.PutInt(int(p.BPos))
		w.PutInt(int(p.MatchLen))
	}
}

// decodePairs reads a pair list of a run over frags fragments. Here and
// below, decoding checks ranges as well as shape — over a transport the
// bytes come from another process, and the receiver indexes with them:
// sequence ids lie in [0, 2·frags) (forward and reverse complement),
// fragment ids in [0, frags).
func decodePairs(r *wire.Reader, frags int) ([]pairgen.Pair, error) {
	n := int(r.Uint())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n < 0 || n > r.Remaining()/5 { // 5 varints of ≥ 1 byte per pair
		return nil, errors.New("wire: truncated pair list")
	}
	ps := make([]pairgen.Pair, n)
	for i := range ps {
		ps[i] = pairgen.Pair{
			ASid:     r.Int32(),
			BSid:     r.Int32(),
			APos:     r.Int32(),
			BPos:     r.Int32(),
			MatchLen: r.Int32(),
		}
		if p := ps[i]; p.ASid < 0 || int(p.ASid) >= 2*frags || p.BSid < 0 || int(p.BSid) >= 2*frags {
			return nil, fmt.Errorf("wire: pair %+v names a sequence outside [0, %d)", p, 2*frags)
		}
	}
	return ps, r.Err()
}

func encodeReport(rep report) []byte {
	w := wire.NewBuffer(16 + 12*len(rep.pairs) + 6*len(rep.results))
	w.PutBool(rep.passive)
	encodePairs(w, rep.pairs)
	w.PutUint(uint64(len(rep.results)))
	for _, ar := range rep.results {
		w.PutInt(int(ar.fa))
		w.PutInt(int(ar.fb))
		w.PutBool(ar.accepted)
	}
	if rep.fail != "" {
		w.PutString(rep.fail)
	}
	return w.Bytes()
}

func decodeReport(b []byte, frags int) (rep report, err error) {
	r := wire.NewReader(b)
	rep.passive = r.Bool()
	if rep.pairs, err = decodePairs(r, frags); err != nil {
		return report{}, err
	}
	n := int(r.Uint())
	if r.Err() != nil {
		return report{}, r.Err()
	}
	if n < 0 || n > r.Remaining()/3 { // 2 varints + 1 bool per result
		return report{}, errors.New("wire: truncated result list")
	}
	rep.results = make([]alignResult, n)
	for i := range rep.results {
		rep.results[i] = alignResult{
			fa:       r.Int32(),
			fb:       r.Int32(),
			accepted: r.Bool(),
		}
		if ar := rep.results[i]; ar.fa < 0 || int(ar.fa) >= frags || ar.fb < 0 || int(ar.fb) >= frags {
			return report{}, fmt.Errorf("wire: result %+v names a fragment outside [0, %d)", ar, frags)
		}
	}
	if r.Remaining() > 0 {
		// Optional trailing fail string; encoded only when non-empty,
		// so an empty one here is not a valid encoding.
		if rep.fail = r.String(); rep.fail == "" && r.Err() == nil {
			return report{}, fmt.Errorf("wire: empty fail string in report")
		}
	}
	if err := r.Err(); err != nil {
		return report{}, err
	}
	if r.Remaining() != 0 {
		return report{}, fmt.Errorf("wire: %d trailing bytes after report", r.Remaining())
	}
	return rep, nil
}

func encodeWork(wk work) []byte {
	w := wire.NewBuffer(8 + 12*len(wk.batch))
	w.PutUint(uint64(wk.r))
	encodePairs(w, wk.batch)
	if len(wk.adopt) > 0 {
		w.PutInts(wk.adopt)
	}
	return w.Bytes()
}

func decodeWork(b []byte, frags int) (wk work, err error) {
	r := wire.NewReader(b)
	wk.r = int(r.Uint())
	if wk.batch, err = decodePairs(r, frags); err != nil {
		return work{}, err
	}
	if r.Remaining() > 0 {
		// Optional trailing adopt list; encoded only when non-empty, so
		// an empty one here is not a valid encoding.
		if wk.adopt = r.Ints(); len(wk.adopt) == 0 && r.Err() == nil {
			return work{}, errors.New("wire: empty adopt list in work")
		}
	}
	if err := r.Err(); err != nil {
		return work{}, err
	}
	if r.Remaining() != 0 {
		return work{}, fmt.Errorf("wire: %d trailing bytes after work", r.Remaining())
	}
	if wk.r < 0 {
		return work{}, errors.New("wire: request size overflows")
	}
	return wk, nil
}
