package durable

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestFailedWriteKeepsOldFile: a fill that fails midway leaves the
// published file as it was and no temp file beside it; a write that
// succeeds replaces it whole.
func TestFailedWriteKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest")
	if err := WriteFile(path, []byte("old\n")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	err := Stage(path, func(w io.Writer) error {
		w.Write([]byte("half of the new"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Stage returned %v, want the fill's error", err)
	}
	if b, _ := os.ReadFile(path); string(b) != "old\n" {
		t.Fatalf("after a failed write the file reads %q", b)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("directory holds %d entries after a failed write, want only the file", len(ents))
	}

	if err := WriteFile(path, []byte("new\n")); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); string(b) != "new\n" {
		t.Fatalf("after a write the file reads %q", b)
	}
	if st, _ := os.Stat(path); st.Mode().Perm() != 0o644 {
		t.Fatalf("published file mode %v, want 0644", st.Mode().Perm())
	}

	// A directory that does not exist fails before anything is written.
	if err := WriteFile(filepath.Join(dir, "missing", "f"), nil); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}
