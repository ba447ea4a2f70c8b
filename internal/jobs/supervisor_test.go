package jobs

import (
	"os/exec"
	"strings"
	"testing"
)

// exitOf runs a shell snippet and returns its wait error, so the
// table below classifies real *exec.ExitError values.
func exitOf(t *testing.T, script string) error {
	t.Helper()
	err := exec.Command("sh", "-c", script).Run()
	if err == nil {
		t.Fatalf("sh -c %q exited 0", script)
	}
	return err
}

// TestClassify pins the attempt-outcome table: only genuine failures
// are charged (OpFail), and no exit after a drain-initiated SIGTERM is
// one — including death by the signal's default disposition, the case
// that used to burn retry budget.
func TestClassify(t *testing.T) {
	exit1 := exitOf(t, "exit 1")
	exit3 := exitOf(t, "exit 3")
	exit4 := exitOf(t, "exit 4")
	termed := exitOf(t, "kill -TERM $$")
	killed := exitOf(t, "kill -KILL $$")
	if !strings.Contains(termed.Error(), "terminated") {
		t.Fatalf("SIGTERM death reads %q", termed)
	}

	cases := []struct {
		name    string
		drained bool
		killed  string
		waitErr error
		op      Op
		backoff bool
		text    string // substring of Err (OpFail) or Reason (OpRequeue)
	}{
		{"done", false, "", nil, OpDone, false, ""},
		{"crash exit 1", false, "", exit1, OpFail, true, "exit status 1"},
		{"exit 3 checkpointed", false, "", exit3, OpRequeue, false, "checkpointed"},
		{"exit 4 workdir busy", false, "", exit4, OpRequeue, true, "busy"},
		{"deadline kill", false, "attempt deadline 1s exceeded", killed, OpFail, true, "deadline"},
		{"quota kill", false, "workdir quota exceeded (2 > 1 bytes)", killed, OpFail, true, "quota"},
		{"undrained SIGTERM", false, "", termed, OpFail, true, "terminated"},
		{"drain + checkpoint", true, "", exit3, OpRequeue, false, "checkpointed"},
		{"drain + signal: terminated", true, "", termed, OpRequeue, false, "terminated"},
		{"drain + crash", true, "", exit1, OpRequeue, false, "drain"},
		{"drain + timeout kill", true, "drain timeout", killed, OpRequeue, false, "drain timeout"},
		{"drain + finished anyway", true, "", nil, OpDone, false, ""},
	}
	for _, c := range cases {
		rec, backoff := classify(c.drained, c.killed, c.waitErr)
		if rec.Op != c.op || backoff != c.backoff {
			t.Errorf("%s: got %s backoff=%v, want %s backoff=%v", c.name, rec.Op, backoff, c.op, c.backoff)
		}
		if got := rec.Err + rec.Reason; !strings.Contains(got, c.text) {
			t.Errorf("%s: text %q lacks %q", c.name, got, c.text)
		}
		if (rec.Err != "") != (rec.Op == OpFail) {
			t.Errorf("%s: Err=%q on op %s", c.name, rec.Err, rec.Op)
		}
	}
}
