package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/seq"
	"repro/internal/simulate"
)

const serveConfEnv = "ASM_TEST_SERVE_CONF"

// TestMain routes re-executed copies of the test binary: a runner
// child (spawned by the supervisor via SelfExec) enters RunJob; a
// server helper (spawned by the kill/restart test so it can be
// SIGKILLed without taking the test down) serves until killed.
func TestMain(m *testing.M) {
	MaybeRunJob()
	if conf := os.Getenv(serveConfEnv); conf != "" {
		serveHelperMain(conf)
		return
	}
	os.Exit(m.Run())
}

// serveConf is the JSON-safe subset of Config shipped to the helper
// process (Config itself has func fields).
type serveConf struct {
	Dir             string
	Workers         int
	MaxAttempts     int
	AttemptDeadline time.Duration
	DrainTimeout    time.Duration
	Retain          time.Duration
}

func serveHelperMain(conf string) {
	var sc serveConf
	if err := json.Unmarshal([]byte(conf), &sc); err != nil {
		fmt.Fprintln(os.Stderr, "serve helper:", err)
		os.Exit(1)
	}
	cfg := Config{
		Dir: sc.Dir, Workers: sc.Workers, MaxAttempts: sc.MaxAttempts,
		AttemptDeadline: sc.AttemptDeadline, DrainTimeout: sc.DrainTimeout,
		Retain:  sc.Retain,
		Backoff: testBackoff(),
	}
	cfg.Logf = func(f string, a ...any) { fmt.Fprintf(os.Stderr, f+"\n", a...) }
	srv, err := Open(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve helper:", err)
		os.Exit(1)
	}
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		fmt.Fprintln(os.Stderr, "serve helper:", err)
		os.Exit(1)
	}
	select {} // run until killed
}

func testBackoff() backoff.Policy {
	return backoff.Policy{Base: 50 * time.Millisecond, Cap: 300 * time.Millisecond, Jitter: 0.2}
}

// startServerProc launches a SIGKILL-able server subprocess over dir
// and returns its base URL and the process handle.
func startServerProc(t *testing.T, dir string, cfg serveConf) (*exec.Cmd, string) {
	t.Helper()
	cfg.Dir = dir
	confJSON, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addrPath := filepath.Join(dir, "addr")
	os.Remove(addrPath)
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), serveConfEnv+"="+string(confJSON))
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(addrPath); err == nil && len(b) > 0 {
			return cmd, "http://" + strings.TrimSpace(string(b))
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("server subprocess never published its address")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// makeFASTA synthesizes a deterministic read set big enough that a
// full pipeline run takes a couple of seconds — room to kill the
// server mid-job.
func makeFASTA(t *testing.T, seed int64, islands, islandLen, reads int) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	genomes := make([]*simulate.Genome, islands)
	for i := range genomes {
		genomes[i] = simulate.NewGenome(rng, fmt.Sprintf("isl%d", i),
			simulate.GenomeConfig{Length: islandLen})
	}
	rc := simulate.DefaultReadConfig()
	rc.MeanLen = 300
	rc.LenSD = 30
	rc.VectorProb = 0
	var recs []seq.Record
	for i := 0; i < reads; i++ {
		g := genomes[i%islands]
		start := (i / islands * 137) % (islandLen - rc.MeanLen)
		f := simulate.SampleAt(rng, g, rc, start, fmt.Sprintf("r%04d", i))
		recs = append(recs, seq.Record{Name: f.Name, Bases: f.Bases})
	}
	var buf bytes.Buffer
	if err := seq.WriteFASTA(&buf, recs, 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// httpJob is the decoded wire form of a job status.
type httpJob struct {
	ID           string `json:"id"`
	State        State  `json:"state"`
	Attempts     int    `json:"attempts"`
	Requeues     int    `json:"requeues"`
	Err          string `json:"error"`
	Phase        string `json:"phase"`
	CollectorURL string `json:"collector_url"`
	Cached       bool   `json:"cached"`
}

func submit(t *testing.T, base, params string, body []byte) (httpJob, int) {
	t.Helper()
	resp, err := http.Post(base+"/jobs?"+params, "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 400 {
		return httpJob{Err: string(b)}, resp.StatusCode
	}
	var job httpJob
	if err := json.Unmarshal(b, &job); err != nil {
		t.Fatalf("submit response %q: %v", b, err)
	}
	return job, resp.StatusCode
}

func getStatus(t *testing.T, base, id string) (httpJob, error) {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id)
	if err != nil {
		return httpJob{}, err
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		return httpJob{}, fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
	var job httpJob
	if err := json.Unmarshal(b, &job); err != nil {
		return httpJob{}, err
	}
	return job, nil
}

func waitState(t *testing.T, base, id string, want State, timeout time.Duration) httpJob {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var last httpJob
	for time.Now().Before(deadline) {
		job, err := getStatus(t, base, id)
		if err == nil {
			last = job
			if job.State == want {
				return job
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s (last: %+v)", id, want, last)
	return httpJob{}
}

func fetchArtifact(t *testing.T, base, id, name string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("fetch %s: status %d: %s", name, resp.StatusCode, b)
	}
	return b
}

// TestServiceSmoke is the acceptance scenario: submit a job, SIGKILL
// the server mid-run, restart it on the same directory, and require
// (a) the job completes with contigs byte-identical to an
// uninterrupted run and (b) resubmitting the same input returns the
// cached result instantly.
func TestServiceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke test")
	}
	input := makeFASTA(t, 21, 3, 6000, 700)
	cfg := serveConf{Workers: 2, AttemptDeadline: 2 * time.Minute, DrainTimeout: 3 * time.Second,
		Retain: time.Hour}

	// Reference: an uninterrupted run of the same input on a fresh dir.
	refDir := t.TempDir()
	refProc, refURL := startServerProc(t, refDir, cfg)
	defer refProc.Process.Kill()
	refJob, code := submit(t, refURL, "psi=20&w=10", input)
	if code != http.StatusAccepted {
		t.Fatalf("reference submit: status %d", code)
	}
	// The reference run proceeds concurrently with the kill dance below.

	dir := t.TempDir()
	proc, base := startServerProc(t, dir, cfg)
	job, code := submit(t, base, "psi=20&w=10", input)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%s)", code, job.Err)
	}
	if job.State != StateQueued {
		t.Fatalf("fresh submission in state %s", job.State)
	}

	// Kill the server the moment the attempt is visibly computing.
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

	// Restart on the same directory: the journal replays, the job is
	// re-adopted, and the attempt resumes through the workdir manifest
	// (racing the orphaned runner for the workdir lock is part of the
	// scenario — busy attempts requeue with backoff until it exits).
	proc2, base2 := startServerProc(t, dir, cfg)
	defer proc2.Process.Kill()
	waitState(t, base2, job.ID, StateDone, 2*time.Minute)
	got := fetchArtifact(t, base2, job.ID, "contigs")

	refFinal := waitState(t, refURL, refJob.ID, StateDone, 2*time.Minute)
	want := fetchArtifact(t, refURL, refFinal.ID, "contigs")
	if len(want) == 0 {
		t.Fatal("reference run produced no contigs")
	}
	if !bytes.Equal(got, want) {
		t.Errorf("contigs after kill+restart differ from uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}

	// Idempotent resubmission: same input + config returns the done
	// job's cached result instantly (no new job, no recompute).
	start := time.Now()
	again, code := submit(t, base2, "psi=20&w=10", input)
	if code != http.StatusOK {
		t.Fatalf("resubmit: status %d, want 200", code)
	}
	if again.ID != job.ID || again.State != StateDone || !again.Cached {
		t.Fatalf("resubmit: %+v, want cached done job %s", again, job.ID)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cached resubmission took %s", d)
	}
}

// TestPoisonJobQuarantined: a job that crashes every attempt exhausts
// its retry budget and is quarantined — while a healthy job on the
// same server completes untouched.
func TestPoisonJobQuarantined(t *testing.T) {
	srv, base := startInprocServer(t, Config{
		Workers: 2, MaxAttempts: 2, AttemptDeadline: time.Minute,
		DrainTimeout: 2 * time.Second,
	})
	defer drainServer(t, srv)

	input := makeFASTA(t, 5, 2, 2000, 60)
	poison, code := submit(t, base, "fail=crash", input)
	if code != http.StatusAccepted {
		t.Fatalf("poison submit: status %d", code)
	}
	healthy, code := submit(t, base, "psi=20&w=10", input)
	if code != http.StatusAccepted {
		t.Fatalf("healthy submit: status %d", code)
	}

	q := waitState(t, base, poison.ID, StateQuarantined, 30*time.Second)
	if q.Attempts != 2 {
		t.Errorf("quarantined after %d attempts, want 2", q.Attempts)
	}
	if !strings.Contains(q.Err, "retry budget exhausted") {
		t.Errorf("quarantine error = %q", q.Err)
	}
	waitState(t, base, healthy.ID, StateDone, time.Minute)
	if c := fetchArtifact(t, base, healthy.ID, "contigs"); len(c) == 0 {
		t.Error("healthy job produced no contigs")
	}
}

// TestHangDeadlineAndQueueFull: a wedged job is killed at the attempt
// deadline (and eventually quarantined), and while it occupies the
// only queue slot new submissions are turned away with 429 +
// Retry-After.
func TestHangDeadlineAndQueueFull(t *testing.T) {
	srv, base := startInprocServer(t, Config{
		Workers: 1, MaxQueue: 1, MaxAttempts: 1,
		AttemptDeadline: 500 * time.Millisecond,
		DrainTimeout:    500 * time.Millisecond,
	})
	defer drainServer(t, srv)

	input := makeFASTA(t, 6, 2, 2000, 60)
	hang, code := submit(t, base, "fail=hang", input)
	if code != http.StatusAccepted {
		t.Fatalf("hang submit: status %d", code)
	}

	// Queue full while the hang job holds the only slot.
	resp, err := http.Post(base+"/jobs?psi=20", "text/plain", bytes.NewReader(makeFASTA(t, 7, 2, 2000, 60)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("submit over full queue: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	q := waitState(t, base, hang.ID, StateQuarantined, 30*time.Second)
	if !strings.Contains(q.Err, "deadline") {
		t.Errorf("hang job error = %q, want deadline kill", q.Err)
	}
}

// TestSubmitValidation: malformed inputs are rejected up front.
func TestSubmitValidation(t *testing.T) {
	srv, base := startInprocServer(t, Config{Workers: 1})
	defer drainServer(t, srv)

	if _, code := submit(t, base, "", []byte("not fasta at all")); code != http.StatusBadRequest {
		t.Errorf("malformed FASTA: status %d, want 400", code)
	}
	if _, code := submit(t, base, "psi=abc", makeFASTA(t, 8, 2, 2000, 20)); code != http.StatusBadRequest {
		t.Errorf("bad psi: status %d, want 400", code)
	}
	if _, code := submit(t, base, "psi=5&w=10", makeFASTA(t, 8, 2, 2000, 20)); code != http.StatusBadRequest {
		t.Errorf("w>psi: status %d, want 400", code)
	}
	if _, code := submit(t, base, "fail=nonsense", makeFASTA(t, 8, 2, 2000, 20)); code != http.StatusBadRequest {
		t.Errorf("unknown fail mode: status %d, want 400", code)
	}
	resp, err := http.Get(base + "/jobs/jdeadbeef00000000")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestDrainRequeuesAndRestartCompletes: a graceful drain checkpoints
// or requeues in-flight work; reopening the same directory finishes
// the job with correct output — nothing lost across the restart.
func TestDrainRequeuesAndRestartCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second pipeline runs")
	}
	dir := t.TempDir()
	cfg := Config{Dir: dir, Workers: 1, AttemptDeadline: 2 * time.Minute,
		DrainTimeout: 10 * time.Second, Backoff: testBackoff()}
	srv, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr

	input := makeFASTA(t, 31, 3, 6000, 700)
	job, code := submit(t, base, "psi=20&w=10", input)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	// Let the attempt get going, then drain.
	deadline := time.Now().Add(20 * time.Second)
	for {
		st, err := getStatus(t, base, job.ID)
		if err == nil && st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	drainServer(t, srv)

	srv2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr2, err := srv2.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer drainServer(t, srv2)
	base2 := "http://" + addr2
	final := waitState(t, base2, job.ID, StateDone, 2*time.Minute)
	if final.Attempts != 0 {
		t.Errorf("drained job charged %d attempts", final.Attempts)
	}
	if c := fetchArtifact(t, base2, job.ID, "contigs"); len(c) == 0 {
		t.Error("no contigs after drain + restart")
	}
}

func startInprocServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	cfg.Dir = t.TempDir()
	cfg.Backoff = testBackoff()
	cfg.Logf = t.Logf
	srv, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return srv, "http://" + addr
}

func drainServer(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	srv.Drain(ctx)
}

// TestDiskStoreJobMatchesMem: a store=disk job with a spilling-GST
// budget must produce contigs byte-identical to the same input's
// in-memory job, and the two submissions must be distinct jobs (the
// fingerprint includes the backend).
func TestDiskStoreJobMatchesMem(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke test")
	}
	input := makeFASTA(t, 23, 2, 4000, 300)
	cfg := serveConf{Workers: 2, AttemptDeadline: 2 * time.Minute, DrainTimeout: 3 * time.Second,
		Retain: time.Hour}
	dir := t.TempDir()
	proc, base := startServerProc(t, dir, cfg)
	defer proc.Process.Kill()

	memJob, code := submit(t, base, "psi=20&w=10", input)
	if code != http.StatusAccepted {
		t.Fatalf("mem submit: status %d (%s)", code, memJob.Err)
	}
	diskJob, code := submit(t, base, "psi=20&w=10&store=disk&membudget=65536", input)
	if code != http.StatusAccepted {
		t.Fatalf("disk submit: status %d (%s)", code, diskJob.Err)
	}
	if diskJob.ID == memJob.ID {
		t.Fatal("disk and mem submissions deduped to one job")
	}

	waitState(t, base, memJob.ID, StateDone, 2*time.Minute)
	waitState(t, base, diskJob.ID, StateDone, 2*time.Minute)
	want := fetchArtifact(t, base, memJob.ID, "contigs")
	got := fetchArtifact(t, base, diskJob.ID, "contigs")
	if len(want) == 0 {
		t.Fatal("mem job produced no contigs")
	}
	if !bytes.Equal(got, want) {
		t.Errorf("disk-backed job contigs differ from in-memory job (%d vs %d bytes)", len(got), len(want))
	}

	// The job workdir must actually hold the on-disk store.
	matches, err := filepath.Glob(filepath.Join(dir, "jobs", "*", "work", "store", "store.data"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("expected exactly one on-disk store under the job dirs, got %v (err %v)", matches, err)
	}
}
