package core

import (
	"fmt"
	"os"

	"repro/internal/seq"
	"repro/internal/seq/diskstore"
)

// Store backend names for StoreConfig.Backend.
const (
	StoreMem  = "mem"
	StoreDisk = "disk"
)

// StoreConfig selects the sequence-store backend the pipeline runs
// over: the in-memory store (every fragment resident), or the
// disk-backed store (2-bit packed bases on disk behind a bounded block
// cache — the out-of-core mode, pair it with Cluster.MemBudget to
// bound GST memory too).
type StoreConfig struct {
	// Backend is "mem" (default when empty) or "disk".
	Backend string
	// Dir holds the disk backend's files. Empty: a temporary
	// directory, removed when the Result is closed. A checkpointed
	// pipeline run ignores it: its store is the preprocess checkpoint
	// under <workdir>/store.
	Dir string
	// CacheBytes bounds the disk backend's block cache
	// (default diskstore.DefaultCacheBytes).
	CacheBytes int64
}

// OpenStore materializes the fragments under the configured backend.
// The returned cleanup (nil for the in-memory backend) releases file
// handles and deletes the store directory if it was a temp dir.
func OpenStore(frags []*seq.Fragment, cfg StoreConfig) (seq.Seqs, func() error, error) {
	switch cfg.Backend {
	case "", StoreMem:
		return seq.NewStore(frags), nil, nil
	case StoreDisk:
		dir := cfg.Dir
		temp := false
		if dir == "" {
			var err error
			if dir, err = os.MkdirTemp("", "asmstore-"); err != nil {
				return nil, nil, fmt.Errorf("core: store dir: %w", err)
			}
			temp = true
		} else if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, fmt.Errorf("core: store dir: %w", err)
		}
		st, err := diskstore.Create(dir, frags, diskstore.Options{CacheBytes: cfg.CacheBytes})
		if err != nil {
			if temp {
				os.RemoveAll(dir)
			}
			return nil, nil, fmt.Errorf("core: disk store: %w", err)
		}
		cleanup := func() error {
			err := st.Close()
			if temp {
				if rerr := os.RemoveAll(dir); err == nil {
					err = rerr
				}
			}
			return err
		}
		return st, cleanup, nil
	default:
		return nil, nil, fmt.Errorf("core: unknown store backend %q", cfg.Backend)
	}
}
