package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serveClients is the closed-loop client count of serve_mix: each
// client submits its next job only after it holds the previous job's
// contigs, so a slower service is offered proportionally less load.
const serveClients = 2

// pollEvery is the status poll period of a waiting client.
const pollEvery = 5 * time.Millisecond

// server is one running asmserve process.
type server struct {
	cmd   *exec.Cmd
	log   *os.File
	url   string
	start time.Time
}

// startServer launches asmserve on an ephemeral port under dir and
// returns once /readyz answers 200. The bound address comes from the
// <data>/addr file the server publishes, not from a fixed port.
func startServer(ctx context.Context, prog, dir string) (*server, error) {
	data := filepath.Join(dir, "data")
	cmd, log, err := command(ctx, dir, "asmserve.log", prog, "-dir", data, "-addr", "127.0.0.1:0", "-workers", fmt.Sprint(serveClients))
	if err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, log: log, start: time.Now()}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, err
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(filepath.Join(data, "addr")); err == nil && s.url == "" {
			s.url = "http://" + strings.TrimSpace(string(b))
		}
		if s.url != "" {
			if resp, err := http.Get(s.url + "/readyz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return s, nil
				}
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			s.stop()
			return nil, fmt.Errorf("asmserve not ready after 10s\n%s", tail(filepath.Join(dir, "asmserve.log"), 2000))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the server with SIGTERM, waits for it (its drain budget
// is bounded by the command's context), kills anything left in its
// process group, and returns the tree's resource usage.
func (s *server) stop() procStats {
	s.cmd.Process.Signal(syscall.SIGTERM)
	s.cmd.Wait() // exit status 143 after a clean drain is expected
	killGroup(s.cmd)
	s.log.Close()
	return statsOf(s.cmd, time.Since(s.start))
}

// jobStatus is the part of the service's status document the
// benchmark reads.
type jobStatus struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	Cached      bool   `json:"cached"`
	SubmittedAt int64  `json:"submitted_at"`
	StartedAt   int64  `json:"started_at"`
	FinishedAt  int64  `json:"finished_at"`
}

// serviceStats are the service-side timings of one unit's jobs.
type serviceStats struct {
	submitAckMs    []float64 // POST /jobs → 202
	cachedSubmitMs []float64 // repeat POST → 200 with the original ID
	queueWaitMs    []float64 // started_at − submitted_at
	attemptS       []float64 // finished_at − started_at
}

// submit posts one read set and returns the HTTP status and the
// service's answer.
func (s *server) submit(ctx context.Context, fasta []byte) (int, jobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+"/jobs", bytes.NewReader(fasta))
	if err != nil {
		return 0, jobStatus{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, jobStatus{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, jobStatus{}, err
	}
	var st jobStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		err = json.Unmarshal(body, &st)
	} else {
		err = fmt.Errorf("POST /jobs: %d %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return resp.StatusCode, st, err
}

func (s *server) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, err
}

// runJob takes one job from submit to contigs in hand.
func (s *server) runJob(ctx context.Context, fasta []byte) (contigs []byte, st jobStatus, ackMs, latency float64, err error) {
	t0 := time.Now()
	code, st, err := s.submit(ctx, fasta)
	if err != nil {
		return nil, st, 0, 0, err
	}
	if code != http.StatusAccepted {
		return nil, st, 0, 0, fmt.Errorf("first submission answered %d, want 202", code)
	}
	ackMs = float64(time.Since(t0)) / 1e6
	for st.State != "done" {
		if st.State == "quarantined" {
			return nil, st, ackMs, 0, fmt.Errorf("job %s quarantined", st.ID)
		}
		select {
		case <-ctx.Done():
			return nil, st, ackMs, 0, ctx.Err()
		case <-time.After(pollEvery):
		}
		body, err := s.get(ctx, "/jobs/"+st.ID)
		if err == nil {
			err = json.Unmarshal(body, &st)
		}
		if err != nil {
			return nil, st, ackMs, 0, err
		}
	}
	contigs, err = s.get(ctx, "/jobs/"+st.ID+"/contigs")
	return contigs, st, ackMs, time.Since(t0).Seconds(), err
}

// runService is one serve_mix unit: serveClients closed-loop clients
// work through the unit's distinct jobs, then the first few are
// submitted again and must come back at once, 200, under their
// original IDs. Wall is first submit → last contigs fetched.
func (w *workload) runService(ctx context.Context, u *unit) (sample, error) {
	ctx, cancel := context.WithTimeout(ctx, 10*w.sized)
	defer cancel()
	srv := u.server
	fastas := make([][]byte, len(u.inputs))
	for j, in := range u.inputs {
		b, err := os.ReadFile(in.fasta)
		if err != nil {
			srv.stop()
			return sample{}, err
		}
		fastas[j] = b
	}

	var (
		mu       sync.Mutex
		smp      sample
		ids      = make([]string, len(fastas))
		firstErr error
		wg       sync.WaitGroup
	)
	next := make(chan int)
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				contigs, st, ackMs, lat, err := srv.runJob(ctx, fastas[j])
				mu.Lock()
				if err != nil {
					u.failed[j] = true
					if firstErr == nil {
						firstErr = fmt.Errorf("job %d: %w", j, err)
					}
				} else {
					u.outputs[j], ids[j] = contigs, st.ID
					smp.latencies = append(smp.latencies, lat)
					smp.service.submitAckMs = append(smp.service.submitAckMs, ackMs)
					smp.service.queueWaitMs = append(smp.service.queueWaitMs, float64(st.StartedAt-st.SubmittedAt)/1e6)
					smp.service.attemptS = append(smp.service.attemptS, float64(st.FinishedAt-st.StartedAt)/1e9)
				}
				mu.Unlock()
			}
		}()
	}
	for j := range fastas {
		next <- j
		smp.reads += u.inputs[j].reads
	}
	close(next)
	wg.Wait()
	wall := time.Since(start).Seconds()

	for j := 0; j < w.resubmits && j < len(fastas) && firstErr == nil; j++ {
		t0 := time.Now()
		code, st, err := srv.submit(ctx, fastas[j])
		switch {
		case err != nil:
		case code != http.StatusOK || st.ID != ids[j] || !st.Cached:
			err = fmt.Errorf("resubmission of job %d answered %d id=%s cached=%v, want 200 id=%s cached", j, code, st.ID, st.Cached, ids[j])
		default:
			smp.service.cachedSubmitMs = append(smp.service.cachedSubmitMs, float64(time.Since(t0))/1e6)
			continue
		}
		u.failed[j] = true
		firstErr = err
	}

	smp.procStats = srv.stop()
	smp.wall = wall
	if firstErr != nil {
		firstErr = fmt.Errorf("%w\n%s", firstErr, tail(filepath.Join(u.dir, "asmserve.log"), 2000))
	}
	return smp, firstErr
}
