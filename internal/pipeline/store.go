package pipeline

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/preprocess"
	"repro/internal/seq"
	"repro/internal/seq/diskstore"
	"repro/internal/wire"
)

// storeDir is the workdir subdirectory holding the disk store, the
// preprocess phase's artifact on both backends.
const storeDir = "store"

// storeFiles are the store members the preprocess record checksums.
var storeFiles = [...]string{diskstore.DataFile, diskstore.IndexFile}

// hashFile streams a file through SHA-256.
func hashFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// preprocessPhase runs or reloads preprocessing and sets res's store
// and preprocess stats. Without a manifest it is core.Run's path. With
// one, the phase's artifact is the disk store under <workdir>/store on
// both backends, and its record holds the stats and the SHA-256 of
// both store files, so a resumed run verifies the exact bytes the
// original run wrote (a mismatch is an error, never a silent rebuild).
// The disk backend then reads the store in place; the in-memory one
// keeps the fragments it preprocessed, or loads them back on resume.
func preprocessPhase(m *manifest, cfg core.Config, frags []*seq.Fragment, onPhase func(Phase), res *core.Result) error {
	sc := cfg.Store
	if sc.Backend != "" && sc.Backend != core.StoreMem && sc.Backend != core.StoreDisk {
		return fmt.Errorf("pipeline: unknown store backend %q", sc.Backend)
	}
	art, resumed, err := m.load(PhasePreprocess)
	if err != nil {
		return err
	}
	if !resumed {
		onPhase(PhasePreprocess)
		if cfg.PreprocessEnabled {
			frags, res.PreprocessStats = preprocess.Run(frags, cfg.Preprocess)
		}
	}
	if m == nil {
		st, closeStore, err := core.OpenStore(frags, sc)
		res.Store = st
		res.SetStoreCloser(closeStore)
		return err
	}
	dir := filepath.Join(m.dir, storeDir)
	if resumed {
		if res.PreprocessStats, err = checkPreprocess(dir, art); err != nil {
			return fmt.Errorf("pipeline: preprocess artifact: %w", err)
		}
	} else {
		if err := diskstore.Write(dir, frags); err != nil {
			return fmt.Errorf("pipeline: write store: %w", err)
		}
		art, err := encodePreprocess(dir, res.PreprocessStats)
		if err != nil {
			return fmt.Errorf("pipeline: %w", err)
		}
		if err := m.complete(PhasePreprocess, art); err != nil {
			return err
		}
	}
	if sc.Backend != core.StoreDisk && !resumed {
		res.Store = seq.NewStore(frags)
		return nil
	}
	st, err := diskstore.Open(dir, diskstore.Options{CacheBytes: sc.CacheBytes})
	switch {
	case err != nil:
		return fmt.Errorf("pipeline: open store: %w", err)
	case sc.Backend == core.StoreDisk:
		res.Store = st
		res.SetStoreCloser(st.Close)
		return nil
	}
	res.Store = seq.NewStore(st.Fragments())
	return st.Close()
}

// statFields lists the preprocess stats in artifact order.
func statFields(st *preprocess.Stats) []*int {
	return []*int{&st.FragsBefore, &st.BasesBefore, &st.FragsAfter,
		&st.BasesAfter, &st.Trimmed, &st.Repetitive, &st.MaskedBases}
}

// encodePreprocess builds the preprocess record: the stats, then the
// SHA-256 of each store file under dir.
func encodePreprocess(dir string, st preprocess.Stats) ([]byte, error) {
	w := wire.NewBuffer(64)
	for _, v := range statFields(&st) {
		w.PutInt(*v)
	}
	for _, name := range storeFiles {
		sum, err := hashFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("store checksum: %w", err)
		}
		w.PutString(sum)
	}
	return w.Bytes(), nil
}

// checkPreprocess decodes a preprocess record's stats and verifies the
// store files under dir against it: their checksums must rebuild the
// record byte for byte.
func checkPreprocess(dir string, b []byte) (preprocess.Stats, error) {
	r := wire.NewReader(b)
	var st preprocess.Stats
	for _, p := range statFields(&st) {
		*p = r.Int()
	}
	want, err := encodePreprocess(dir, st)
	if err == nil && !bytes.Equal(b, want) {
		err = fmt.Errorf("store under %s fails its checksum (refusing to resume)", dir)
	}
	return st, err
}
