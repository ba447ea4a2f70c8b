package cluster

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/pairgen"
	"repro/internal/unionfind"
	"repro/internal/wire"
)

// Checkpoint is a consistent snapshot of the master's clustering
// state: the union–find partition (as per-fragment cluster labels),
// the statistics accumulated so far, and the pairs pending dispatch.
// It deliberately omits worker-side state — on resume workers
// regenerate pairs from scratch and the master's union–find makes
// re-delivered pairs harmless (Same() skips, Union() is idempotent) —
// so a checkpoint stays small: O(N) labels plus the bounded pending
// buffer.
type Checkpoint struct {
	N       int
	Labels  []int32 // Labels[i] = union-find representative of fragment i
	Stats   Stats
	Pending []pairgen.Pair
}

// checkpointMagic guards against feeding an arbitrary file to Resume;
// the byte after it is a format version.
const (
	checkpointMagic   = 0x63636b70 // "cckp"
	checkpointVersion = 1
)

// snapshotCheckpoint captures the master's state mid-run.
func snapshotCheckpoint(uf *unionfind.UF, st Stats, pending []pairgen.Pair) *Checkpoint {
	cp := &Checkpoint{N: uf.N(), Stats: st, Pending: append([]pairgen.Pair(nil), pending...)}
	cp.Labels = make([]int32, cp.N)
	for i := range cp.Labels {
		cp.Labels[i] = int32(uf.Find(i))
	}
	return cp
}

// CheckpointOf snapshots a completed clustering as a phase-boundary
// checkpoint (no pending pairs), the artifact the resumable pipeline
// stores after the clustering phase.
func CheckpointOf(res *Result) *Checkpoint {
	return snapshotCheckpoint(res.UF, res.Stats, nil)
}

// Result converts a checkpoint back into a completed clustering;
// pending pairs, if any, are discarded (a phase-boundary checkpoint
// has none).
func (cp *Checkpoint) Result() *Result {
	return &Result{N: cp.N, UF: cp.restore(), Stats: cp.Stats}
}

// restore rebuilds a union–find from the checkpoint's labels.
func (cp *Checkpoint) restore() *unionfind.UF {
	uf := unionfind.New(cp.N)
	for i, l := range cp.Labels {
		uf.Union(i, int(l))
	}
	return uf
}

// Encode serializes the checkpoint with the wire format.
func (cp *Checkpoint) Encode() []byte {
	w := wire.NewBuffer(16 + 2*len(cp.Labels) + 12*len(cp.Pending))
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
	encodePairs(w, cp.Pending)
	return w.Bytes()
}

// DecodeCheckpoint parses an encoded checkpoint, returning an error —
// never panicking — on malformed input.
func DecodeCheckpoint(b []byte) (cp *Checkpoint, err error) {
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
	cp = &Checkpoint{N: int(r.Uint())}
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
	if err := r.Err(); err != nil {
		return nil, err
	}
	if cp.Pending, err = decodePairs(r, cp.N); err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("cluster: %d trailing bytes after checkpoint", r.Remaining())
	}
	return cp, nil
}
