package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/durable"
	"repro/internal/seq"
	"repro/internal/wire"
)

// Phase names the pipeline stages a manifest records.
type Phase string

const (
	PhasePreprocess Phase = "preprocess"
	PhaseCluster    Phase = "cluster"
	PhaseAssembly   Phase = "assembly"
)

// Phases lists the stages in execution order.
var Phases = []Phase{PhasePreprocess, PhaseCluster, PhaseAssembly}

const (
	manifestMagic   = 0x706d6673 // "pmfs"
	manifestVersion = 3
	manifestFile    = "manifest"
)

// errOlderManifest marks a manifest an older build wrote (versions 1
// and 2, whose preprocess artifact was not the store): a resumed run
// starts afresh over it instead of trusting its artifacts.
var errOlderManifest = errors.New("manifest written by an older build")

// record marks one completed phase: the artifact file holding its
// output and that file's SHA-256, so a torn or tampered artifact is
// detected before it silently corrupts a resumed run.
type record struct {
	name     string
	artifact string
	sum      string // hex SHA-256 of the artifact bytes
}

// manifest is the on-disk job journal of a checkpointed pipeline run:
// the input fingerprint, the configuration fingerprint, and one record
// per completed phase. All methods are nil-safe so an un-checkpointed
// run (no workdir) passes a nil manifest around.
type manifest struct {
	dir     string
	input   string // inputHash of the input fragments
	flags   string // configuration fingerprint
	records []record
	lk      *lock // exclusive workdir lease, held until close
}

// close releases the workdir lock. Nil-safe (no-workdir runs carry a
// nil manifest) and idempotent.
func (m *manifest) close() {
	if m == nil {
		return
	}
	m.lk.release()
	m.lk = nil
}

func hashBytes(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// inputHash fingerprints the input fragments: every name, base and
// quality streamed through SHA-256, each length-prefixed.
func inputHash(frags []*seq.Fragment) string {
	h := sha256.New()
	var n [binary.MaxVarintLen64]byte
	put := func(b []byte) {
		h.Write(n[:binary.PutUvarint(n[:], uint64(len(b)))])
		h.Write(b)
	}
	for _, f := range frags {
		put([]byte(f.Name))
		put(f.Bases)
		put(f.Qual)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// openManifest prepares the workdir's manifest. With resume set an
// existing manifest is loaded and verified against the input and
// flags; otherwise any previous manifest is discarded and the run
// starts from scratch. Without a workdir there is nothing to check the
// input against, so it is not fingerprinted.
func openManifest(dir string, frags []*seq.Fragment, flags string, resume bool) (*manifest, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pipeline: workdir: %w", err)
	}
	lk, err := acquireLock(dir)
	if err != nil {
		return nil, err
	}
	m := &manifest{dir: dir, input: inputHash(frags), flags: flags, lk: lk}
	if err := m.restore(resume); err != nil {
		m.close()
		return nil, err
	}
	return m, nil
}

// restore takes over the records of the workdir's manifest when
// resuming, and removes it otherwise. A missing manifest, or one an
// older build wrote, leaves nothing to resume: the run starts afresh.
func (m *manifest) restore(resume bool) error {
	path := filepath.Join(m.dir, manifestFile)
	if !resume {
		if err := os.RemoveAll(path); err != nil {
			return fmt.Errorf("pipeline: reset manifest: %w", err)
		}
		return nil
	}
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("pipeline: read manifest: %w", err)
	}
	old, err := decodeManifest(b)
	switch {
	case errors.Is(err, errOlderManifest):
		return nil
	case err != nil:
		return fmt.Errorf("pipeline: %w", err)
	case old.input != m.input:
		return errors.New("pipeline: manifest was written for different input (refusing to resume)")
	case old.flags != m.flags:
		return fmt.Errorf("pipeline: manifest was written with different configuration %q (refusing to resume)", old.flags)
	}
	m.records = old.records
	return nil
}

func (m *manifest) encode() []byte {
	w := wire.NewBuffer(64)
	w.PutUint(manifestMagic)
	w.PutUint(manifestVersion)
	w.PutString(m.input)
	w.PutString(m.flags)
	w.PutUint(uint64(len(m.records)))
	for _, r := range m.records {
		w.PutString(r.name)
		w.PutString(r.artifact)
		w.PutString(r.sum)
	}
	return w.Bytes()
}

func decodeManifest(b []byte) (*manifest, error) {
	r := wire.NewReader(b)
	if r.Uint() != manifestMagic {
		if err := r.Err(); err != nil {
			return nil, err
		}
		return nil, errors.New("not a pipeline manifest (bad magic)")
	}
	switch v := r.Uint(); {
	case r.Err() != nil:
		return nil, r.Err()
	case v == 1 || v == 2:
		return nil, errOlderManifest
	case v != manifestVersion:
		return nil, fmt.Errorf("unsupported manifest version %d", v)
	}
	m := &manifest{input: r.String(), flags: r.String()}
	n := int(r.Uint())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n < 0 || n > len(Phases) {
		return nil, fmt.Errorf("manifest phase count %d out of range", n)
	}
	for i := 0; i < n; i++ {
		m.records = append(m.records, record{
			name:     r.String(),
			artifact: r.String(),
			sum:      r.String(),
		})
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%d trailing bytes after manifest", r.Remaining())
	}
	return m, nil
}

// Rollback truncates a workdir's manifest to its first keep phases,
// exactly the state a run killed at that phase boundary leaves behind.
// Artifacts of later phases stay on disk but are no longer recorded,
// so a resumed run recomputes them: at keep 0 that reruns
// preprocessing and rewrites the store, at keep ≥ 1 the store is
// reopened. It is both an operator tool ("re-run from clustering
// onward") and the harness behind the kill-and-resume experiments.
func Rollback(dir string, keep int) error {
	b, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return fmt.Errorf("pipeline: rollback: %w", err)
	}
	m, err := decodeManifest(b)
	if err != nil {
		return fmt.Errorf("pipeline: rollback: %w", err)
	}
	if keep < 0 || keep > len(m.records) {
		return fmt.Errorf("pipeline: rollback to %d phases, manifest has %d", keep, len(m.records))
	}
	m.records = m.records[:keep]
	return durable.WriteFile(filepath.Join(dir, manifestFile), m.encode())
}

// load returns the recorded artifact of a completed phase. ok is
// false when the phase has no record; a record whose artifact is
// missing or fails its checksum is an error, not a silent recompute.
func (m *manifest) load(p Phase) ([]byte, bool, error) {
	if m == nil {
		return nil, false, nil
	}
	for _, r := range m.records {
		if r.name != string(p) {
			continue
		}
		b, err := os.ReadFile(filepath.Join(m.dir, r.artifact))
		if err != nil {
			return nil, false, fmt.Errorf("pipeline: phase %s artifact: %w", p, err)
		}
		if hashBytes(b) != r.sum {
			return nil, false, fmt.Errorf("pipeline: phase %s artifact %s fails its checksum", p, r.artifact)
		}
		return b, true, nil
	}
	return nil, false, nil
}

// complete records a phase's artifact: the artifact is staged first,
// then the manifest, and one directory sync makes both durable — so a
// crash between the two writes leaves a resumable manifest that simply
// re-runs the phase.
func (m *manifest) complete(p Phase, artifact []byte) error {
	if m == nil {
		return nil
	}
	name := string(p) + ".bin"
	if err := durable.Stage(filepath.Join(m.dir, name), durable.Bytes(artifact)); err != nil {
		return fmt.Errorf("pipeline: write %s artifact: %w", p, err)
	}
	m.records = append(m.records, record{name: string(p), artifact: name, sum: hashBytes(artifact)})
	if err := durable.WriteFile(filepath.Join(m.dir, manifestFile), m.encode()); err != nil {
		return fmt.Errorf("pipeline: write manifest: %w", err)
	}
	return nil
}
