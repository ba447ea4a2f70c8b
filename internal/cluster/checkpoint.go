package cluster

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/unionfind"
	"repro/internal/wire"
)

// Checkpoint is a completed clustering at the phase boundary, the
// artifact the resumable pipeline stores after the clustering phase:
// the union–find partition (as per-fragment cluster labels) and the
// run's statistics. It stays small: O(N) labels.
type Checkpoint struct {
	N      int
	Labels []int32 // Labels[i] = union-find representative of fragment i
	Stats  Stats
}

// checkpointMagic guards against feeding an arbitrary file to
// DecodeCheckpoint; the byte after it is a format version. Version 1
// ends in a pair list that is always empty, kept so that checkpoints
// in existing workdirs and job journals still decode.
const (
	checkpointMagic   = 0x63636b70 // "cckp"
	checkpointVersion = 1
)

// CheckpointOf snapshots a completed clustering.
func CheckpointOf(res *Result) *Checkpoint {
	cp := &Checkpoint{N: res.UF.N(), Stats: res.Stats, Labels: make([]int32, res.UF.N())}
	for i := range cp.Labels {
		cp.Labels[i] = int32(res.UF.Find(i))
	}
	return cp
}

// Result converts a checkpoint back into a completed clustering.
func (cp *Checkpoint) Result() *Result {
	uf := unionfind.New(cp.N)
	for i, l := range cp.Labels {
		uf.Union(i, int(l))
	}
	return &Result{N: cp.N, UF: uf, Stats: cp.Stats}
}

// Encode serializes the checkpoint with the wire format.
func (cp *Checkpoint) Encode() []byte {
	w := wire.NewBuffer(16 + 2*len(cp.Labels))
	w.PutUint(checkpointMagic)
	w.PutUint(checkpointVersion)
	w.PutUint(uint64(cp.N))
	for _, l := range cp.Labels {
		w.PutInt(int(l))
	}
	for _, v := range []int64{cp.Stats.Generated, cp.Stats.Aligned, cp.Stats.Accepted,
		cp.Stats.Skipped, cp.Stats.Merges, cp.Stats.WorkersLost, cp.Stats.Requeued} {
		w.PutInt(int(v))
	}
	for _, f := range []float64{cp.Stats.GSTSeconds, cp.Stats.ClusterSeconds, cp.Stats.WallSeconds} {
		w.PutUint(math.Float64bits(f))
	}
	w.PutUint(0) // the empty pair list
	return w.Bytes()
}

// DecodeCheckpoint parses an encoded checkpoint, returning an error —
// never panicking — on malformed input.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	r := wire.NewReader(b)
	if r.Uint() != checkpointMagic {
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, errors.New("cluster: not a checkpoint (bad magic)")
	}
	if v := r.Uint(); v != checkpointVersion {
		return nil, fmt.Errorf("cluster: unsupported checkpoint version %d", v)
	}
	cp := &Checkpoint{N: int(r.Uint())}
	if cp.N < 0 || cp.N > r.Remaining() {
		return nil, errors.New("cluster: checkpoint label count exceeds payload")
	}
	cp.Labels = make([]int32, cp.N)
	for i := range cp.Labels {
		l := r.Int()
		if l < 0 || l >= cp.N {
			return nil, fmt.Errorf("cluster: checkpoint label %d out of range", l)
		}
		cp.Labels[i] = int32(l)
	}
	cp.Stats.Generated = int64(r.Int())
	cp.Stats.Aligned = int64(r.Int())
	cp.Stats.Accepted = int64(r.Int())
	cp.Stats.Skipped = int64(r.Int())
	cp.Stats.Merges = int64(r.Int())
	cp.Stats.WorkersLost = int64(r.Int())
	cp.Stats.Requeued = int64(r.Int())
	cp.Stats.GSTSeconds = math.Float64frombits(r.Uint())
	cp.Stats.ClusterSeconds = math.Float64frombits(r.Uint())
	cp.Stats.WallSeconds = math.Float64frombits(r.Uint())
	pending := r.Uint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if pending != 0 {
		return nil, fmt.Errorf("cluster: checkpoint holds %d pending pairs; only a completed clustering resumes", pending)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("cluster: %d trailing bytes after checkpoint", r.Remaining())
	}
	return cp, nil
}
