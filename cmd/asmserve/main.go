// Command asmserve runs assembly-as-a-service: an HTTP job server
// with a crash-safe journal and a supervised worker pool. Submit a
// FASTA read set, poll the job, fetch the contigs:
//
//	asmserve -dir /var/lib/asm -addr :8080 &
//	curl -sS --data-binary @reads.fa 'http://localhost:8080/jobs?psi=20&w=10&ranks=4'
//	curl -sS http://localhost:8080/jobs/<id>
//	curl -sS http://localhost:8080/jobs/<id>/contigs > contigs.fa
//
// Kill the server at any point and restart it on the same -dir: the
// journal replays, in-flight jobs are re-adopted, and their workdirs
// resume from the last completed phase — the final contigs are
// byte-identical to an uninterrupted run. While a job runs, its
// status carries the path of the attempt's events stream, which
// asmprof -watch follows. Failed
// attempts retry after a jittered backoff (500ms doubling to 30s);
// SIGINT or SIGTERM drains: running attempts checkpoint and requeue.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/jobs"
	"repro/internal/launch"
)

func main() {
	// A process re-executed by the supervisor is a job runner, not a
	// server; it must branch before flag parsing.
	jobs.MaybeRunJob()

	var (
		dir      = flag.String("dir", "", "service data directory (journal + job workdirs; required)")
		addr     = flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
		workers  = flag.Int("workers", 2, "supervised worker pool size")
		maxQueue = flag.Int("max-queue", 32, "max queued+running jobs before submissions get 429")
		retries  = flag.Int("max-attempts", 3, "charged attempts before a job is quarantined")
		deadline = flag.Duration("attempt-deadline", 10*time.Minute, "per-attempt wall-clock budget (SIGKILL past it)")
		drain    = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain budget for running jobs on shutdown")
		quota    = flag.Int64("quota-bytes", 0, "per-job workdir size cap in bytes (0 = unlimited)")
		minFree  = flag.Uint64("min-free-bytes", 0, "refuse submissions when data dir has less free space (0 = off)")
		retain   = flag.Duration("retain", 24*time.Hour, "how long finished jobs keep intermediate artifacts (reclaimed when due)")
	)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "asmserve: -dir is required")
		flag.Usage()
		os.Exit(2)
	}

	srv, err := jobs.Open(jobs.Config{
		Dir:             *dir,
		Workers:         *workers,
		MaxQueue:        *maxQueue,
		MaxAttempts:     *retries,
		AttemptDeadline: *deadline,
		DrainTimeout:    *drain,
		QuotaBytes:      *quota,
		MinFreeBytes:    *minFree,
		Retain:          *retain,
		Logf:            log.Printf,
	})
	if err != nil {
		log.Fatalf("asmserve: %v", err)
	}
	bound, err := srv.Start(*addr)
	if err != nil {
		log.Fatalf("asmserve: %v", err)
	}
	log.Printf("asmserve: listening on http://%s", bound)

	done := make(chan struct{})
	launch.OnSignal(func(sig os.Signal) {
		ctx, cancel := context.WithTimeout(context.Background(), *drain+10*time.Second)
		defer cancel()
		srv.Drain(ctx)
		close(done)
	})
	<-done
}
