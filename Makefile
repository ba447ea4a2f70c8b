GO ?= go

.PHONY: all build vet fmt-check lines test flake-check race test-race cover faults pipeline-faults sim fuzz-smoke obs transport-conformance obs-live-smoke service-smoke outofcore-smoke profile-smoke cli-smoke ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every Go file in the checkout is gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); [ -z "$$out" ] || { echo "fmt-check: gofmt -l lists:"; echo "$$out"; exit 1; }

# Counted lines per package: non-test .go files, lines that are
# neither blank nor a // comment. ROADMAP and CHANGES quote these
# figures; the last line is the total.
lines:
	@find . -name '*.go' ! -name '*_test.go' ! -path './.git/*' | \
	xargs awk '!/^[ \t]*$$/ && !/^[ \t]*\/\// { d = FILENAME; sub(/\/[^\/]*$$/, "", d); sub(/^\.\/?/, "", d); n[d == "" ? "." : d]++ } \
		END { for (d in n) printf "%6d  %s\n", n[d], d }' | \
	sort -k2 | awk '{ print; t += $$1 } END { printf "%6d  total\n", t }'

# Uncached and in shuffled order: no test may lean on another having
# run first, or on who wins a race with the scheduler.
test:
	$(GO) test -count=1 -shuffle=on ./...

# The GST-to-assembly core three times over, shuffled, on one core and
# on the default: a PR that speeds a layer up moves every race a test
# had with it, so it must re-run this (ROADMAP item 4a). The runtime is
# in the list because its collectives are woken by a rank's death, not
# by a timer, and that must hold on one core too; the socket transport
# and the job service because their real-socket and real-process tests
# must not wait on a race either.
FLAKE_PKGS := ./internal/par ./internal/par/nettrans ./internal/assembly ./internal/suffixtree ./internal/pgst ./internal/pairgen ./internal/cluster ./internal/jobs
flake-check:
	GOMAXPROCS=1 $(GO) test -count=3 -shuffle=on $(FLAKE_PKGS)
	$(GO) test -count=3 -shuffle=on $(FLAKE_PKGS)

# The pool and everything that runs on it: the GST bucket build and
# pair generation's first pass split a forest across goroutines, and
# their identity tests run at GOMAXPROCS 4 on any host. The socket
# transport's real-socket tests (reconnect after a cut, the mesh, crash
# notify) and its link simulator run here too, and so do the disk
# store's readers, which copy out of cache blocks a miss may reuse.
race:
	$(GO) test -race ./internal/par ./internal/par/nettrans ./internal/cluster ./internal/obs ./internal/obs/collector ./cmd/asmprof ./internal/align ./internal/assembly ./internal/pool ./internal/suffixtree ./internal/pairgen ./internal/pgst ./internal/seq/diskstore

# Race detector over the concurrency-heavy packages the simulation
# harness exercises (runtime, clustering protocol, GST build, harness).
test-race:
	$(GO) test -race ./internal/par ./internal/cluster ./internal/pgst ./internal/sim

# Coverage gate: the harness and its union-find oracle model must stay
# above 70% statement coverage.
cover:
	@$(GO) test -cover ./internal/sim ./internal/unionfind > .cover.tmp || { cat .cover.tmp; rm -f .cover.tmp; exit 1; }
	@cat .cover.tmp
	@awk '/coverage:/ { p = $$5; sub(/%/, "", p); if (p + 0 < 70) { print "coverage gate: " $$2 " below 70% (" p "%)"; bad = 1 } } END { exit bad }' .cover.tmp; st=$$?; rm -f .cover.tmp; exit $$st

# Full-repo race run; the experiments package makes this slow.
race-all:
	$(GO) test -race ./...

# CI-sized fault-tolerance sweep: kills workers and drops messages,
# checks the partition stays exactly the serial one.
faults:
	$(GO) run ./cmd/experiments -run faults -quick

# End-to-end fault model: GST-phase crash + clustering crash +
# corrupting wire in one run (partition must stay exactly serial),
# kill-and-resume at every pipeline phase boundary (contigs must stay
# byte-identical), and quarantined assembly (must complete, not abort).
pipeline-faults:
	$(GO) run ./cmd/experiments -run pipelinefaults -quick

# Bounded simulation campaign: randomized (machine, genome, faults,
# schedule) cases, each checked against the serial-equivalence oracles.
# Failures print a (campaign, case) tuple that replays them exactly.
# The campaign must also really kill a rank during GST construction in
# at least one case, or it has silently lost that coverage.
sim:
	@log=$$(mktemp) && trap 'rm -f "$$log"' EXIT; \
	$(GO) run ./cmd/simrunner -campaign 1 -seeds 40 -j 4 > "$$log" || { cat "$$log"; exit 1; }; \
	cat "$$log"; \
	grep -Eq ' [1-9][0-9]* GST-phase crashes fired' "$$log" || { echo "sim: no case killed a rank during GST construction"; exit 1; }

# Committed seed corpora for every fuzz target; a target whose corpus
# directory is empty fails before fuzzing starts.
FUZZ_CORPORA := testdata/fuzz/FuzzReadFASTA \
	internal/seq/testdata/fuzz/FuzzReadFASTA \
	internal/seq/testdata/fuzz/FuzzReadQual \
	internal/wire/testdata/fuzz/FuzzReader \
	internal/cluster/testdata/fuzz/FuzzDecodeReport \
	internal/cluster/testdata/fuzz/FuzzDecodeWork \
	internal/cluster/testdata/fuzz/FuzzMasterStep \
	internal/cluster/testdata/fuzz/FuzzWorkerStep \
	internal/par/nettrans/testdata/fuzz/FuzzDecodeFrame \
	internal/par/nettrans/testdata/fuzz/FuzzLinkStep \
	internal/jobs/testdata/fuzz/FuzzSupervisorStep \
	internal/seq/diskstore/testdata/fuzz/FuzzOpenIndex \
	internal/seq/diskstore/testdata/fuzz/FuzzReadData \
	internal/obs/testdata/fuzz/FuzzReadDump \
	internal/obs/analyze/testdata/fuzz/FuzzAnalyze \
	internal/obs/prof/testdata/fuzz/FuzzParseProfile \
	internal/align/testdata/fuzz/FuzzAnchoredOverlap \
	internal/align/testdata/fuzz/FuzzAnchoredOverlapAccept \
	internal/align/testdata/fuzz/FuzzFitMatchesOracle \
	internal/assembly/testdata/fuzz/FuzzFindOverlaps \
	internal/pairgen/testdata/fuzz/FuzzGenerateMatchesReference \
	internal/suffixtree/testdata/fuzz/FuzzBuildMatchesReference \
	internal/suffixtree/testdata/fuzz/FuzzSortKeyed \
	internal/pgst/testdata/fuzz/FuzzBuildMatchesSerial

# Short fuzz passes over every parser the pipeline feeds untrusted
# bytes to: FASTA and qual readers, the wire-format decoders, the
# events-stream fold and the causal analysis asmprof runs on it — over
# the banded extension kernel and its identity bound, the consensus
# fitting kernel, assembly's overlap detector, the GST bucket builder,
# its key sort and the distributed GST build, each held to its
# differential oracle, and over the master core, the worker core, the
# socket link core and the job supervisor core, held to their
# invariants.
fuzz-smoke:
	@for d in $(FUZZ_CORPORA); do \
		ls $$d/* >/dev/null 2>&1 || { echo "fuzz-smoke: empty corpus: $$d"; exit 1; }; \
	done
	$(GO) test -run=NONE -fuzz=FuzzReadFASTA -fuzztime=10s .
	$(GO) test -run=NONE -fuzz=FuzzReadFASTA -fuzztime=10s ./internal/seq
	$(GO) test -run=NONE -fuzz=FuzzReadQual -fuzztime=10s ./internal/seq
	$(GO) test -run=NONE -fuzz=FuzzReader -fuzztime=10s ./internal/wire
	$(GO) test -run=NONE -fuzz=FuzzDecodeReport -fuzztime=10s ./internal/cluster
	$(GO) test -run=NONE -fuzz=FuzzDecodeWork -fuzztime=10s ./internal/cluster
	$(GO) test -run=NONE -fuzz=FuzzMasterStep -fuzztime=10s ./internal/cluster
	$(GO) test -run=NONE -fuzz=FuzzWorkerStep -fuzztime=10s ./internal/cluster
	$(GO) test -run=NONE -fuzz=FuzzDecodeFrame -fuzztime=10s ./internal/par/nettrans
	$(GO) test -run=NONE -fuzz=FuzzLinkStep -fuzztime=10s ./internal/par/nettrans
	$(GO) test -run=NONE -fuzz=FuzzSupervisorStep -fuzztime=10s ./internal/jobs
	$(GO) test -run=NONE -fuzz=FuzzOpenIndex -fuzztime=10s ./internal/seq/diskstore
	$(GO) test -run=NONE -fuzz=FuzzReadData -fuzztime=10s ./internal/seq/diskstore
	$(GO) test -run=NONE -fuzz=FuzzReadDump -fuzztime=10s ./internal/obs
	$(GO) test -run=NONE -fuzz=FuzzAnalyze -fuzztime=10s ./internal/obs/analyze
	$(GO) test -run=NONE -fuzz=FuzzParseProfile -fuzztime=10s ./internal/obs/prof
	$(GO) test -run=NONE -fuzz='^FuzzAnchoredOverlap$$' -fuzztime=10s ./internal/align
	$(GO) test -run=NONE -fuzz=FuzzAnchoredOverlapAccept -fuzztime=10s ./internal/align
	$(GO) test -run=NONE -fuzz=FuzzFitMatchesOracle -fuzztime=10s ./internal/align
	$(GO) test -run=NONE -fuzz=FuzzFindOverlaps -fuzztime=10s ./internal/assembly
	$(GO) test -run=NONE -fuzz=FuzzGenerateMatchesReference -fuzztime=10s ./internal/pairgen
	$(GO) test -run=NONE -fuzz=FuzzBuildMatchesReference -fuzztime=10s ./internal/suffixtree
	$(GO) test -run=NONE -fuzz=FuzzSortKeyed -fuzztime=10s ./internal/suffixtree
	$(GO) test -run=NONE -fuzz=FuzzBuildMatchesSerial -fuzztime=10s ./internal/pgst

# Events-stream smoke: asmprof checks every stream as it explains it.
# One sim case's stream must pass the stream invariants and stitch
# into a causal DAG (an unmatched message edge, a duplicate delivery, a
# cycle or a critical path != makespan fails) and render as a Chrome
# trace; then a 4-process TCP run's per-rank streams must merge and
# pass the same invariants. The temp directory is made in the recipe,
# so parsing the Makefile creates nothing, and the trap removes it when
# a step fails.
obs:
	d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT; set -e; \
	$(GO) run ./cmd/simrunner -campaign 1 -case 3 -events-out "$$d/case3.events.json"; \
	$(GO) run ./cmd/asmprof -chrome "$$d/case3.crit.json" "$$d/case3.events.json"; \
	$(GO) run ./cmd/genomesim -kind wgs -len 20000 -coverage 6 -seed 42 -out "$$d/sim"; \
	$(GO) run ./cmd/asmcluster -in "$$d/sim_reads.fa" -ranks 4 -transport tcp -events-out "$$d/ev.json" -out "$$d/clusters.tsv"; \
	$(GO) run ./cmd/asmprof "$$d"/ev.json.rank*

# Transport conformance: the sim partition and causal-trace oracles
# against every transport backend under the race detector — in-process
# goroutines, then TCP and Unix-socket ranks as real OS processes (the
# test binary re-executes itself as the workers), plus one case that
# SIGKILLs a worker process mid-phase and requires lease-based
# recovery to the canonical partition. Then the socket link core's
# simulator: a fixed-seed campaign of 10⁴ cases under the race
# detector; a failure prints the seed and case that replay it.
transport-conformance:
	$(GO) test -race -v -run TestConformance ./internal/transconf
	$(GO) test -race -run=NONE -bench=LinkSimCampaign -benchtime=10000x ./internal/par/nettrans

# Live telemetry smoke: a 4-process TCP run whose every rank appends
# to its events stream is read while it runs. Every rank must have
# appended before rank 0's final record; a SIGKILLed worker keeps its
# streamed events and lease expiries and reads as dead at the instant
# its last append is 8 s old (judged at that instant, not waited for)
# while the job recovers; and the finished run's live analysis must
# equal the post-hoc analysis of the same files.
obs-live-smoke:
	$(GO) test -v -run TestObsLive ./internal/transconf

# Assembly-as-a-service smoke: a real asmserve-style server (the test
# binary re-executes itself as both the server and its job runners) is
# SIGKILLed mid-job and restarted on the same directory; the journal
# must replay, the job must resume to byte-identical contigs, a repeat
# submission must hit the cache, and a poison job must be quarantined
# after its retry budget without disturbing healthy jobs. Then the
# supervisor core's simulator: a fixed-seed campaign of 10⁴ cases under
# the race detector; a failure prints the seed and case that replay it.
service-smoke:
	$(GO) test -v -run 'TestServiceSmoke|TestPoisonJobQuarantined|TestHangDeadlineAndQueueFull|TestDrainRequeuesAndRestartCompletes' ./internal/jobs
	$(GO) test -race -run=NONE -bench=SupervisorSimCampaign -benchtime=10000x ./internal/jobs

# Profiling-plane smoke: under the race detector, the labeling
# contract of a profiled 8-rank run (session + label hooks) and the
# SIGKILL+resume profiled job whose served profile must be the
# completing attempt's artifact and decode after restart; then a
# labeled 8-rank asmcluster capture with its events dump, rendered by
# asmprof as the critical-path attribution report, collapsed stacks
# and a diff against itself (which must find no delta), and merged
# offline by the standard reader, go tool pprof.
profile-smoke:
	$(GO) test -race -v -run 'TestProfileLabelExactness' ./internal/launch
	$(GO) test -race -v -run 'TestProfiledJobSurvivesKill' ./internal/jobs
	d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT; set -e; \
	$(GO) run ./cmd/genomesim -kind wgs -len 20000 -coverage 6 -seed 42 -out "$$d/sim"; \
	$(GO) run ./cmd/asmcluster -in "$$d/sim_reads.fa" -ranks 8 -prof-dir "$$d/prof" -events-out "$$d/prof/events.json" -out "$$d/clusters.tsv"; \
	$(GO) run ./cmd/asmprof "$$d/prof"; \
	$(GO) run ./cmd/asmprof -folded "$$d/prof" > "$$d/folded.txt"; \
	$(GO) tool pprof -top "$$d"/prof/*.cpu.pb.gz >/dev/null; \
	$(GO) run ./cmd/asmprof -diff "$$d/prof" "$$d/prof" | tee "$$d/diff.txt"; \
	[ "$$(grep -c '^  none$$' "$$d/diff.txt")" = 2 ] || { echo "profile-smoke: a capture diffed against itself shows deltas"; exit 1; }

# Command-line contract under the race detector: asmcluster and
# asmpipeline, the two SPMD commands, are built with -race and driven
# through the benchmark's argv shapes — serial-equal partition,
# transport- and store-independent contigs, checkable per-process
# dumps, a decodable profile, and a clean TMPDIR with no surviving rank
# after success, failure and SIGINT/SIGTERM.
cli-smoke:
	$(GO) test -race -count=1 -v -run 'TestCLIContract' ./internal/launch

# Out-of-core smoke: the budgeted GST sweep under the race detector
# (segments ≡ serial tree on both stores, two store scans per sweep,
# no run file left behind, byte-capped access table, the pipelined
# sweep's stream ≡ the unsplit one's and its producer joined however
# the consumer stops), the pipelined sweep's hand-off again on one
# core, then the
# disk-backed pipeline end to end under it — fresh run matches the
# in-memory contigs, the store
# artifact is journaled, resume from every rollback depth is
# byte-identical (reusing, not rebuilding, the checksummed store), and
# a corrupted store artifact refuses to resume. Then, without the race
# detector (its ×10 in-memory cell peaks near 550 MB), the memory gate:
# peak RSS of the disk backend stays flat under a ×10 input while the
# in-memory backend's grows.
outofcore-smoke:
	$(GO) test -race -run 'Sweep|Spill|SeqTable|BuildHolds' ./internal/pgst
	GOMAXPROCS=1 $(GO) test -count=1 -run 'TestSweep(LeavesNoRunFile|StreamStopsEarly|MatchesSerialGenerate|ProducerLabelled)' ./internal/pgst
	$(GO) test -race -v -run 'TestOutOfCore' ./internal/pipeline
	$(GO) test -count=1 -v -run 'AcrossTenfoldInput' ./internal/pipeline

ci: vet fmt-check build test flake-check race test-race cover faults pipeline-faults sim fuzz-smoke obs transport-conformance obs-live-smoke service-smoke outofcore-smoke profile-smoke cli-smoke
