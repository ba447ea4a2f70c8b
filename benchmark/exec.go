package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// programs are the binaries the end-to-end runs drive; they are built
// from the checkout's source before anything is measured.
var programs = []string{"asmpipeline", "asmcluster", "asmserve"}

// buildPrograms compiles the programs into binDir. With a warm build
// cache this is a sub-second no-op, so it is not part of setup_s.
func buildPrograms(ctx context.Context, binDir string) error {
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the root of a full checkout (no go.mod here): %w", err)
	}
	args := []string{"build", "-o", binDir + string(filepath.Separator)}
	for _, p := range programs {
		args = append(args, "./cmd/"+p)
	}
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build: %w", err)
	}
	return nil
}

// procStats is what one process tree cost: wall from exec to exit,
// user+system CPU and the largest resident set of any process in the
// tree (the kernel folds waited-for descendants into the child's
// rusage, and every program here waits for what it spawns).
type procStats struct {
	wall  float64
	cpu   float64
	rssMB float64
}

// command prepares a program to run in its own process group with its
// temp files and output confined to dir. Cancelling ctx kills the
// whole group, so spawned ranks and job runners die with their parent.
func command(ctx context.Context, dir, logName, prog string, args ...string) (*exec.Cmd, *os.File, error) {
	log, err := os.Create(filepath.Join(dir, logName))
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.CommandContext(ctx, prog, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "TMPDIR="+dir)
	cmd.Stdout, cmd.Stderr = log, log
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return killGroup(cmd) }
	cmd.WaitDelay = 2 * time.Second
	return cmd, log, nil
}

func killGroup(cmd *exec.Cmd) error {
	if cmd.Process == nil {
		return nil
	}
	return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
}

// statsOf reads a finished command's resource usage.
func statsOf(cmd *exec.Cmd, wall time.Duration) procStats {
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return procStats{
		wall:  wall.Seconds(),
		cpu:   tv(ru.Utime) + tv(ru.Stime),
		rssMB: float64(ru.Maxrss) / 1024, // Linux reports KiB
	}
}

// runProgram runs a program to completion under a timeout. A run that
// outlives the timeout is killed and reported as an error, never left
// hanging; stragglers in its process group are killed either way.
func runProgram(ctx context.Context, timeout time.Duration, dir, prog string, args ...string) (procStats, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	logName := filepath.Base(prog) + ".log"
	cmd, log, err := command(ctx, dir, logName, prog, args...)
	if err != nil {
		return procStats{}, err
	}
	defer log.Close()
	start := time.Now()
	err = cmd.Run()
	wall := time.Since(start)
	killGroup(cmd) // ESRCH when, as expected, nothing is left
	if err != nil {
		if ctx.Err() != nil {
			err = fmt.Errorf("%w (%v)", err, ctx.Err())
		}
		return procStats{}, fmt.Errorf("%s %v: %w\n%s", filepath.Base(prog), args, err, tail(filepath.Join(dir, logName), 2000))
	}
	return statsOf(cmd, wall), nil
}

// tail returns the last n bytes of a file, for error messages.
func tail(path string, n int) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	if len(b) > n {
		b = b[len(b)-n:]
	}
	return string(b)
}
