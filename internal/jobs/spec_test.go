package jobs

import (
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestFlagsFingerprintStability: the out-of-core fields must append to
// the fingerprint only when set — existing in-memory jobs keep their
// idempotency keys and resumable workdirs across this change.
func TestFlagsFingerprintStability(t *testing.T) {
	base := Spec{}.Flags()
	if strings.Contains(base, "store=") || strings.Contains(base, "membudget=") {
		t.Fatalf("default fingerprint mentions out-of-core fields: %q", base)
	}
	if got := (Spec{Store: "mem"}).Flags(); got != base {
		t.Fatalf("explicit mem backend changed the fingerprint: %q vs %q", got, base)
	}
	disk := Spec{Store: "disk", MemBudget: 1 << 20}.Flags()
	if !strings.Contains(disk, "store=disk") || !strings.Contains(disk, "membudget=1048576") {
		t.Fatalf("disk fingerprint missing out-of-core fields: %q", disk)
	}
	if IdempotencyKey([]byte("x"), Spec{}) == IdempotencyKey([]byte("x"), Spec{Store: "disk"}) {
		t.Fatal("disk and mem submissions dedupe to the same job")
	}
}

// TestSpecValidatesStore: unknown backends and negative budgets are
// rejected at submission time.
func TestSpecValidatesStore(t *testing.T) {
	if err := (Spec{Store: "tape"}).validate(); err == nil {
		t.Fatal("store=tape accepted")
	}
	if err := (Spec{MemBudget: -1}).validate(); err == nil {
		t.Fatal("negative mem_budget accepted")
	}
	if err := (Spec{Store: "disk", MemBudget: 1 << 20}).validate(); err != nil {
		t.Fatalf("valid disk spec rejected: %v", err)
	}
}

// TestSpecCoreConfig: a submission's query reaches the runner's
// pipeline configuration, the out-of-core fields included.
func TestSpecCoreConfig(t *testing.T) {
	for _, c := range []struct {
		query   string
		backend string
		budget  int64
	}{
		{"psi=20&w=10", "", 0},
		{"psi=20&w=10&store=mem", "", 0},
		{"psi=20&w=10&store=disk&membudget=65536", core.StoreDisk, 65536},
	} {
		spec, err := specFromQuery(httptest.NewRequest("POST", "/jobs?"+c.query, nil))
		if err != nil {
			t.Fatal(err)
		}
		cfg := spec.coreConfig(nil)
		if cfg.Store.Backend != c.backend || cfg.Cluster.MemBudget != c.budget {
			t.Errorf("%s: store %q, mem budget %d; want %q, %d", c.query, cfg.Store.Backend, cfg.Cluster.MemBudget, c.backend, c.budget)
		}
		if cfg.Cluster.Psi != 20 || cfg.Cluster.W != 10 || cfg.AssemblyGuard == nil || cfg.AssemblyGuard.Retries != 1 {
			t.Errorf("%s: psi %d, w %d, guard %+v", c.query, cfg.Cluster.Psi, cfg.Cluster.W, cfg.AssemblyGuard)
		}
	}
}
