// Package launch turns a single binary into a multi-process SPMD
// job. The parent process (rank 0) re-executes itself once per worker
// rank with the same argument list plus a handful of environment
// variables; each child detects those variables at startup, builds a
// socket transport from them, and runs only its own rank. Because
// every process parses the same flags, deterministic input loading
// and preprocessing reproduce the identical fragment set in each
// rank without shipping it over the wire. Session (session.go) is the
// one startup and exit every command runs around its payload.
package launch

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

const (
	rankEnv      = "ASM_SPMD_RANK"
	sizeEnv      = "ASM_SPMD_SIZE"
	registryEnv  = "ASM_SPMD_REGISTRY"
	epochEnv     = "ASM_SPMD_EPOCH"
	collectorEnv = "ASM_SPMD_COLLECTOR" // run collector base URL
)

// child describes this process's role in a spawned SPMD job.
type child struct {
	Rank     int
	Size     int
	Registry string // rendezvous registry directory
	Epoch    uint64

	// Collector is the run collector's base URL, decided by the parent;
	// empty when the parent ran without one.
	Collector string
}

// env renders the child's identity as the environment entries fromEnv
// decodes.
func (c child) env() []string {
	out := []string{
		rankEnv + "=" + strconv.Itoa(c.Rank),
		sizeEnv + "=" + strconv.Itoa(c.Size),
		registryEnv + "=" + c.Registry,
		epochEnv + "=" + strconv.FormatUint(c.Epoch, 10),
	}
	if c.Collector != "" {
		out = append(out, collectorEnv+"="+c.Collector)
	}
	return out
}

// fromEnv reports whether this process was re-executed as a worker
// rank, and with what parameters.
func fromEnv() (child, bool, error) {
	rs := os.Getenv(rankEnv)
	if rs == "" {
		return child{}, false, nil
	}
	var c child
	var err error
	if c.Rank, err = strconv.Atoi(rs); err != nil {
		return child{}, false, fmt.Errorf("launch: bad %s=%q", rankEnv, rs)
	}
	if c.Size, err = strconv.Atoi(os.Getenv(sizeEnv)); err != nil {
		return child{}, false, fmt.Errorf("launch: bad %s=%q", sizeEnv, os.Getenv(sizeEnv))
	}
	if c.Epoch, err = strconv.ParseUint(os.Getenv(epochEnv), 10, 64); err != nil {
		return child{}, false, fmt.Errorf("launch: bad %s=%q", epochEnv, os.Getenv(epochEnv))
	}
	c.Registry = os.Getenv(registryEnv)
	if c.Registry == "" {
		return child{}, false, fmt.Errorf("launch: %s set but %s empty", rankEnv, registryEnv)
	}
	c.Collector = os.Getenv(collectorEnv)
	if c.Rank < 1 || c.Rank >= c.Size {
		return child{}, false, fmt.Errorf("launch: child rank %d out of range for size %d", c.Rank, c.Size)
	}
	return c, true, nil
}

// Fleet is the set of worker-rank processes spawned by rank 0.
type Fleet struct {
	procs map[int]*exec.Cmd
}

// spawn re-executes the current binary as ranks 1..tmpl.Size-1 of a
// job rooted at this process (which becomes rank 0); tmpl carries the
// job identity and telemetry wiring every child shares. Children
// inherit the parent's arguments verbatim; their stdout is redirected
// to the parent's stderr so rank 0 alone owns the job's stdout.
func spawn(tmpl child) (*Fleet, error) {
	f := &Fleet{procs: make(map[int]*exec.Cmd)}
	for r := 1; r < tmpl.Size; r++ {
		tmpl.Rank = r
		cmd, err := SelfExec(tmpl.env(), os.Args[1:]...)
		if err == nil {
			cmd.Stdout = os.Stderr
			cmd.Stderr = os.Stderr
			err = cmd.Start()
		}
		if err != nil {
			f.KillAll()
			f.Wait()
			return nil, fmt.Errorf("launch: spawn rank %d: %w", r, err)
		}
		f.procs[r] = cmd
	}
	return f, nil
}

// KillAll forcibly terminates every spawned rank (cleanup path).
func (f *Fleet) KillAll() {
	for _, cmd := range f.procs {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
		}
	}
}

// Wait reaps every spawned rank and returns the per-rank exit error
// (nil for a clean exit). It must be called exactly once.
func (f *Fleet) Wait() map[int]error {
	out := make(map[int]error, len(f.procs))
	for r, cmd := range f.procs {
		out[r] = cmd.Wait()
	}
	return out
}

// SelfExec builds (without starting) a command that re-executes the
// current binary with the given arguments and extra environment
// entries appended to the inherited environment. It is the common
// primitive behind SPMD rank spawning and the job service's
// supervised runner processes.
func SelfExec(extraEnv []string, args ...string) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("launch: resolve executable: %w", err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), extraEnv...)
	return cmd, nil
}
