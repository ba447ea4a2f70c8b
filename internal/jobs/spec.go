package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Spec is the per-job assembly configuration a client submits
// alongside its reads. The zero value means "defaults"; withDefaults
// canonicalizes before fingerprinting so equivalent submissions
// dedupe to the same job.
type Spec struct {
	// Psi is the minimum maximal-match length ψ (default 20).
	Psi int `json:"psi,omitempty"`
	// W is the GST bucket prefix length (default 10, ≤ ψ).
	W int `json:"w,omitempty"`
	// Ranks sizes the in-process master–worker machine (default 1 =
	// serial clustering).
	Ranks int `json:"ranks,omitempty"`
	// Mask enables statistical repeat detection + masking.
	Mask bool `json:"mask,omitempty"`
	// Seed drives repeat-detection sampling (default 1).
	Seed int64 `json:"seed,omitempty"`
	// AssemblyRetries is the per-cluster guard budget (default 1).
	AssemblyRetries int `json:"assembly_retries,omitempty"`
	// Store selects the sequence-store backend: "" or "mem" (default,
	// all-RAM) or "disk" (out-of-core: 2-bit packed bases on disk
	// under the job workdir behind a bounded cache).
	Store string `json:"store,omitempty"`
	// MemBudget, when positive, bounds GST construction memory via the
	// spilling build (bytes). Usually paired with Store "disk".
	MemBudget int64 `json:"mem_budget,omitempty"`
	// FailInject is the fault-injection hook for supervision tests:
	// "crash" makes the runner exit non-zero immediately (a poison
	// job), "hang" makes it block forever (exercises the deadline).
	// Production submissions leave it empty.
	FailInject string `json:"fail_inject,omitempty"`
	// Profile runs the attempt under a profiling session: phase/rank-
	// labeled CPU and allocation artifacts land in the job's prof/
	// directory, and the completing attempt's own CPU artifact is
	// served at /jobs/{id}/profile.
	Profile bool `json:"profile,omitempty"`
}

func (s Spec) withDefaults() Spec {
	if s.Psi <= 0 {
		s.Psi = 20
	}
	if s.W <= 0 {
		s.W = 10
	}
	if s.Ranks <= 0 {
		s.Ranks = 1
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.AssemblyRetries <= 0 {
		s.AssemblyRetries = 1
	}
	return s
}

func (s Spec) validate() error {
	s = s.withDefaults()
	if s.W > s.Psi {
		return fmt.Errorf("jobs: w=%d exceeds psi=%d", s.W, s.Psi)
	}
	if s.Ranks > 64 {
		return fmt.Errorf("jobs: ranks=%d exceeds the per-job cap of 64", s.Ranks)
	}
	switch s.FailInject {
	case "", "crash", "hang":
	default:
		return fmt.Errorf("jobs: unknown fail_inject %q (crash, hang)", s.FailInject)
	}
	switch s.Store {
	case "", "mem", "disk":
	default:
		return fmt.Errorf("jobs: unknown store backend %q (mem, disk)", s.Store)
	}
	if s.MemBudget < 0 {
		return fmt.Errorf("jobs: mem_budget=%d is negative", s.MemBudget)
	}
	return nil
}

// Flags is the canonical configuration fingerprint. It doubles as the
// pipeline manifest's Flags string, so a resumed attempt refuses a
// workdir written under a different configuration.
func (s Spec) Flags() string {
	s = s.withDefaults()
	f := fmt.Sprintf("psi=%d w=%d ranks=%d mask=%v seed=%d aretries=%d",
		s.Psi, s.W, s.Ranks, s.Mask, s.Seed, s.AssemblyRetries)
	// Out-of-core fields append only when set, so fingerprints (and
	// therefore idempotency keys and resumable workdirs) of existing
	// in-memory jobs are unchanged.
	if s.Store == "disk" {
		f += " store=disk"
	}
	if s.MemBudget > 0 {
		f += fmt.Sprintf(" membudget=%d", s.MemBudget)
	}
	if s.FailInject != "" {
		f += " fail=" + s.FailInject
	}
	if s.Profile {
		f += " profile"
	}
	return f
}

// IdempotencyKey fingerprints (input bytes, configuration). Two
// submissions with the same key are the same job: the second returns
// the first's ID (and, when done, its cached result) instead of
// re-running.
func IdempotencyKey(input []byte, s Spec) string {
	h := sha256.New()
	h.Write([]byte(s.Flags()))
	h.Write([]byte{'\n'})
	h.Write(input)
	return hex.EncodeToString(h.Sum(nil))
}

// jobID derives the external job ID from the idempotency key. Keying
// the ID (and the job directory) on the fingerprint is what makes
// resubmission hit the same workdir and return the cached result.
func jobID(key string) string { return "j" + key[:16] }
