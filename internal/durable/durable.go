// Package durable publishes files so that neither a crash nor a power
// loss leaves a torn file under the name: a reader finds the old
// contents or the new, in full. Every checkpoint, result and marker
// the pipeline, the job service, the disk store, the profiler and the
// socket registry write goes through it.
package durable

import (
	"io"
	"os"
	"path/filepath"
)

// Stage writes a temp file beside path with fill, fsyncs it and
// renames it over path. The rename is itself durable only once the
// directory is synced, so a step that lands several files in one
// directory stages them and syncs once after the last (WriteFile does
// both for one file). The temp file is removed on any error.
func Stage(path string, fill func(w io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	err = f.Chmod(0o644)
	if err == nil {
		err = fill(f)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// SyncDir fsyncs a directory, making the renames and creations in it
// durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Bytes is a fill that writes b.
func Bytes(b []byte) func(io.Writer) error {
	return func(w io.Writer) error { _, err := w.Write(b); return err }
}

// WriteFile durably publishes b at path: Stage, then SyncDir.
func WriteFile(path string, b []byte) error {
	if err := Stage(path, Bytes(b)); err != nil {
		return err
	}
	return SyncDir(filepath.Dir(path))
}
