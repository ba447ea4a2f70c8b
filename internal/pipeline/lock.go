package pipeline

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
)

// ErrWorkdirLocked reports that another live process holds a workdir's
// lockfile. Callers that supervise runs (the job service) match it
// with errors.Is and retry instead of charging the failure to the job.
var ErrWorkdirLocked = errors.New("pipeline: workdir locked by another live run")

const lockFile = "workdir.lock"

// lock is an exclusive per-workdir lease held for the duration of one
// checkpointed run. Two concurrent runs sharing a workdir would race
// on the manifest and corrupt each other's artifacts; the lock makes
// the second run fail fast instead. It is an flock on the lockfile,
// held through an open descriptor: the kernel drops it when the
// holder's descriptors close, at exit or SIGKILL, so a dead holder —
// a zombie nobody reaps included — never wedges the workdir. The file
// names the holder's PID for the error message only.
type lock struct {
	f *os.File
}

// acquireLock takes the workdir lock or returns ErrWorkdirLocked
// (wrapped with the holder's PID) when a live process holds it.
func acquireLock(dir string) (*lock, error) {
	path := filepath.Join(dir, lockFile)
	for {
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return nil, fmt.Errorf("pipeline: lock workdir: %w", err)
		}
		if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
			b, _ := io.ReadAll(f)
			f.Close()
			if errors.Is(err, syscall.EWOULDBLOCK) {
				return nil, fmt.Errorf("%w (pid %s, %s)", ErrWorkdirLocked, strings.TrimSpace(string(b)), path)
			}
			return nil, fmt.Errorf("pipeline: lock workdir: %w", err)
		}
		// release unlinks the file before it unlocks: a lock won on a
		// file no longer at path guards nothing, so take the new one.
		held, err1 := f.Stat()
		named, err2 := os.Stat(path)
		if err1 == nil && err2 == nil && os.SameFile(held, named) {
			f.Truncate(0)
			f.WriteString(strconv.Itoa(os.Getpid()) + "\n")
			return &lock{f: f}, nil
		}
		f.Close()
	}
}

// release drops the lock, once. Nil-safe so un-checkpointed runs (no
// workdir, no lock) need no guards.
func (l *lock) release() {
	if l == nil || l.f == nil {
		return
	}
	os.Remove(l.f.Name())
	l.f.Close()
	l.f = nil
}
