package jobs

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs/prof"
)

// TestProfiledJobSurvivesKill is the profiling-plane acceptance
// scenario: the server running a profile=1 job is SIGKILLed
// mid-attempt and a restarted server brings the job to done — its
// attempts wait out the orphaned runner's workdir lock, and the one
// that finds the workdir finished only reloads it. /jobs/{id}/profile
// must serve, byte for byte, the CPU artifact of the attempt that ran
// the job's last phase (a reload runs none and must not replace it):
// it decodes with the in-repo reader and carries rank labels.
func TestProfiledJobSurvivesKill(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke test")
	}
	input := makeFASTA(t, 41, 3, 6000, 700)
	cfg := serveConf{Workers: 2, AttemptDeadline: 2 * time.Minute, DrainTimeout: 3 * time.Second,
		Retain: time.Hour}
	dir := t.TempDir()
	proc, base := startServerProc(t, dir, cfg)

	job, code := submit(t, base, "psi=20&w=10&ranks=4&profile=1", input)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%s)", code, job.Err)
	}

	// Kill the server once the attempt is visibly computing under the
	// profiler.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := getStatus(t, base, job.ID)
		if err == nil && st.State == StateRunning && st.Phase != "" && st.Phase != "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started computing (last err %v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := proc.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	proc.Wait()

	proc2, base2 := startServerProc(t, dir, cfg)
	defer proc2.Process.Kill()
	waitState(t, base2, job.ID, StateDone, 2*time.Minute)

	if c := fetchArtifact(t, base2, job.ID, "contigs"); len(c) == 0 {
		t.Error("no contigs after kill + restart")
	}
	data := fetchArtifact(t, base2, job.ID, "profile")
	arts, err := filepath.Glob(filepath.Join(dir, "jobs", job.ID, "prof", "*"+prof.SuffixCPU))
	if err != nil || len(arts) == 0 {
		t.Fatalf("no per-attempt CPU artifacts on disk (err %v)", err)
	}
	served := ""
	for _, a := range arts {
		if b, err := os.ReadFile(a); err == nil && bytes.Equal(b, data) {
			served = a
		}
	}
	if served == "" {
		t.Fatalf("served profile (%d bytes) is none of the per-attempt artifacts %v", len(data), arts)
	}
	p, err := prof.Parse(data)
	if err != nil {
		t.Fatalf("served profile does not decode: %v", err)
	}
	if len(p.Samples) == 0 {
		t.Fatal("served profile has no samples")
	}
	if p.ValueIndex("cpu") < 0 {
		t.Fatalf("served profile sample types %v lack cpu", p.SampleTypes)
	}
	var rankLabeled, phaseLabeled int
	for i := range p.Samples {
		if p.Samples[i].Label(prof.LabelRank) != "" {
			rankLabeled++
		}
		if p.Samples[i].Label(prof.LabelPhase) != "" {
			phaseLabeled++
		}
	}
	if rankLabeled == 0 {
		t.Errorf("none of %d served samples carry a rank label", len(p.Samples))
	}
	t.Logf("served %s: %d samples, %d rank-labeled, %d phase-labeled",
		filepath.Base(served), len(p.Samples), rankLabeled, phaseLabeled)

	// Every attempt's artifact stays on disk (PID-unique stems keep
	// attempts from clobbering each other's), so asmprof <job>/prof
	// reports across all of them. A SIGKILLed runner's artifact is
	// empty (the runtime writes a CPU profile only when it is stopped)
	// and must be skipped, not counted as a profile.
	ps, skipped, err := prof.ParseFiles(arts)
	if err != nil {
		t.Fatalf("parsing per-attempt artifacts: %v", err)
	}
	isSkipped := map[string]bool{}
	for _, s := range skipped {
		isSkipped[s] = true
	}
	for _, a := range arts {
		if st, err := os.Stat(a); err == nil && st.Size() == 0 && !isSkipped[a] {
			t.Errorf("empty artifact %s was not skipped (skipped: %v)", a, skipped)
		}
	}
	t.Logf("per-attempt artifacts: %d parseable, %d skipped", len(ps), len(skipped))
}
