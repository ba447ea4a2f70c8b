package pipeline

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
)

// TestLockExcludesConcurrentRun: a workdir held by a live process must
// refuse a second run instead of letting two writers corrupt the
// manifest.
func TestLockExcludesConcurrentRun(t *testing.T) {
	dir := t.TempDir()
	lk, err := acquireLock(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer lk.release()

	frags := testFrags(4, 2, 2000, 40)
	_, err = Run(frags, Config{Core: testCoreConfig(), Workdir: dir, Flags: "t"})
	if !errors.Is(err, ErrWorkdirLocked) {
		t.Fatalf("Run on a locked workdir: err = %v, want ErrWorkdirLocked", err)
	}

	lk.release()
	if _, err := Run(frags, Config{Core: testCoreConfig(), Workdir: dir, Flags: "t"}); err != nil {
		t.Fatalf("Run after lock release: %v", err)
	}
	// The run releases its own lock on return.
	if _, err := os.Stat(filepath.Join(dir, lockFile)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("lockfile survives a completed run: stat err = %v", err)
	}
}

// TestLockBreaksStaleDeadPID: a lock left behind by a SIGKILLed process
// (its PID no longer live) must be broken, not wedge the workdir.
func TestLockBreaksStaleDeadPID(t *testing.T) {
	dir := t.TempDir()
	// A real-but-dead PID: run a short-lived child and reuse its PID.
	cmd := exec.Command("true")
	if err := cmd.Run(); err != nil {
		t.Skipf("cannot run 'true': %v", err)
	}
	dead := cmd.Process.Pid
	if err := os.WriteFile(filepath.Join(dir, lockFile), []byte(strconv.Itoa(dead)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	lk, err := acquireLock(dir)
	if err != nil {
		t.Fatalf("stale lock (dead pid %d) not broken: %v", dead, err)
	}
	lk.release()
}

// TestLockBreaksTornContent: an unparseable lockfile (torn write) is
// stale by definition.
func TestLockBreaksTornContent(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, lockFile), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	lk, err := acquireLock(dir)
	if err != nil {
		t.Fatalf("torn lock not broken: %v", err)
	}
	lk.release()
}

// TestInterruptCheckpointsAtBoundary: an interrupt fires before the
// run starts; Run must stop at the first boundary with every completed
// phase journaled, and a resume must finish byte-identically to an
// uninterrupted run.
func TestInterruptCheckpointsAtBoundary(t *testing.T) {
	cfg := testCoreConfig()
	want, err := core.Run(testFrags(5, 3, 2200, 90), cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	stop := make(chan struct{})
	close(stop)
	var phases []Phase
	_, err = Run(testFrags(5, 3, 2200, 90), Config{
		Core: cfg, Workdir: dir, Flags: "t", Interrupt: stop,
		OnPhase: func(p Phase) { phases = append(phases, p) },
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run: err = %v, want ErrInterrupted", err)
	}
	// Only the first phase ran before the boundary check fired.
	if len(phases) != 1 || phases[0] != PhasePreprocess {
		t.Fatalf("phases computed before interrupt = %v, want [preprocess]", phases)
	}
	got, err := Run(testFrags(5, 3, 2200, 90), Config{Core: cfg, Workdir: dir, Flags: "t", Resume: true})
	if err != nil {
		t.Fatalf("resume after interrupt: %v", err)
	}
	if !bytes.Equal(contigBytes(got), contigBytes(want)) {
		t.Error("resumed-after-interrupt contigs differ from uninterrupted run")
	}
}

// lockHolderEnv names the workdir a re-executed copy of this test
// binary locks and then holds until it is killed.
const lockHolderEnv = "PIPELINE_TEST_LOCK_HOLDER"

func holdLockMain(dir string) {
	if _, err := acquireLock(dir); err != nil {
		fmt.Fprintln(os.Stderr, "lock holder:", err)
		os.Exit(1)
	}
	fmt.Println("locked")
	select {}
}

// TestLockFreedByZombieHolder: a holder SIGKILLed and never reaped
// stays a zombie, whose PID still answers kill(pid, 0). Its lock must
// be free all the same, or every later run of the workdir is refused.
func TestLockFreedByZombieHolder(t *testing.T) {
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), lockHolderEnv+"="+dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Wait() // reaped only once the test is over
	line, err := bufio.NewReader(out).ReadString('\n')
	if line != "locked\n" {
		cmd.Process.Kill()
		t.Fatalf("lock holder said %q (%v)", line, err)
	}
	if _, err := acquireLock(dir); !errors.Is(err, ErrWorkdirLocked) {
		t.Fatalf("lock held by a live process: err = %v, want ErrWorkdirLocked", err)
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	// The holder dies a moment after the signal; poll for the real
	// process, not for a race.
	deadline := time.Now().Add(10 * time.Second)
	for {
		lk, err := acquireLock(dir)
		if err == nil {
			lk.release()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("lock of a killed, unreaped holder still refused: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
