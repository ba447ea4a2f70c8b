package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/assembly"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/pairgen"
	"repro/internal/par"
	"repro/internal/pgst"
	"repro/internal/pipeline"
	"repro/internal/preprocess"
	"repro/internal/seq"
	"repro/internal/seq/diskstore"
	"repro/internal/suffixtree"
	"repro/internal/unionfind"
)

// perLayer lists the per-layer metrics in the order they are printed.
// A layer a workload bypasses reports 0.
var perLayer = []metricDef{
	{"seq.fasta_parse_mb_per_s", "MB/s"},
	{"seq.fasta_write_mb_per_s", "MB/s"},
	{"preprocess.busy_s", "s"},
	{"preprocess.reads_per_s", "1/s"},
	{"diskstore.create_mb_per_s", "MB/s"},
	{"diskstore.seq_hit_mb_per_s", "MB/s"},
	{"diskstore.seq_miss_mb_per_s", "MB/s"},
	{"diskstore.cache_hit_ratio", "ratio"},
	{"suffixtree.build_s", "s"},
	{"suffixtree.suffixes_per_s", "1/s"},
	{"suffixtree.allocs_per_suffix", "count"},
	{"suffixtree.nodes", "count"},
	{"pgst.build_p4_s", "s"},
	{"pgst.sweep_serial_s", "s"},
	{"pgst.sweep_suffixes_per_s", "1/s"},
	{"pgst.spill_segments", "count"},
	{"pairgen.self_s", "s"},
	{"pairgen.pairs_per_s", "1/s"},
	{"pairgen.emitted", "count"},
	{"pairgen.nodes_visited", "count"},
	{"pairgen.dup_skipped_ratio", "ratio"},
	{"align.busy_s", "s"},
	{"align.pairs_aligned", "count"},
	{"align.cells_per_s", "1/s"},
	{"align.us_per_pair", "us"},
	{"align.accept_ratio", "ratio"},
	{"unionfind.busy_s", "s"},
	{"unionfind.ops_per_s", "1/s"},
	{"cluster.serial_s", "s"},
	{"cluster.parallel_p4_s", "s"},
	{"cluster.parallel_speedup", "ratio"},
	{"cluster.nproc", "count"},
	{"cluster.savings_ratio", "ratio"},
	{"cluster.overaligned_ratio", "ratio"},
	{"par.sendrecv_rtt_us", "us"},
	{"par.sendrecv_mb_per_s", "MB/s"},
	{"par.alltoallv_mb_per_s", "MB/s"},
	{"par.msgs", "count"},
	{"par.bytes", "count"},
	{"par.model_makespan_s", "s"},
	{"par.model_comm_s", "s"},
	{"par.model_comp_s", "s"},
	{"par.model_idle_s", "s"},
	{"par.wall_over_model", "ratio"},
	{"nettrans.connect_ms", "ms"},
	{"nettrans.rtt_us", "us"},
	{"nettrans.mb_per_s", "MB/s"},
	{"nettrans.tax_s", "s"},
	{"wire.encode_mb_per_s", "MB/s"},
	{"wire.decode_mb_per_s", "MB/s"},
	{"wire.frame_mb_per_s", "MB/s"},
	{"assembly.busy_s", "s"},
	{"assembly.bases_per_s", "1/s"},
	{"assembly.clusters", "count"},
	{"assembly.largest_cluster_s", "s"},
	{"assembly.largest_cluster_share", "ratio"},
	{"pipeline.checkpoint_s", "s"},
	{"pipeline.checkpoint_bytes", "count"},
	{"jobs.journal_append_us", "us"},
	{"jobs.journal_fsyncs_per_s", "1/s"},
	{"jobs.submit_ack_p50_ms", "ms"},
	{"jobs.cached_submit_p50_ms", "ms"},
	{"jobs.queue_wait_p50_ms", "ms"},
	{"jobs.attempt_p50_s", "s"},
	{"jobs.spawn_overhead_ms", "ms"},
	{"trace.layer_sum_over_wall", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

const mb = 1e6

// tracer is one traced run: the span recorder plus the counts and busy
// totals taken at the same layer boundaries. Calls too short for a
// span each (one alignment, one union–find operation) only add to a
// count and a busy total.
type tracer struct {
	rec *Recorder
	// acc sums counts and busy seconds over every staged input.
	acc map[string]float64
	// ufOps is the recorded Same/Union sequence, replayed afterwards
	// to time union–find alone.
	ufOps []ufOp
	ufN   int
}

type ufOp struct {
	a, b  int32
	union bool
}

func fileSize(path string) float64 {
	if path == "" {
		return 0
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(fi.Size())
}

// span runs fn under a span and returns its duration in seconds.
func (t *tracer) span(name string, fn func()) float64 {
	end := t.rec.begin(name)
	t0 := time.Now()
	fn()
	d := time.Since(t0).Seconds()
	end()
	return d
}

// stageClustering is cluster.Serial taken apart at its layer
// boundaries: GST (one tree, or the spill sweep when the budget is
// set), pair generation, and in the pair callback the union–find
// lookups and the alignment.
func (t *tracer) stageClustering(store seq.Seqs, cfg cluster.Config) *unionfind.UF {
	n := int32(store.N())
	uf := unionfind.New(store.N())
	t.ufN = store.N()
	pgCfg := pairgen.Config{Psi: cfg.Psi, NumFragments: store.N(), DuplicateElimination: cfg.DuplicateElimination}
	process := func(p pairgen.Pair) bool {
		fa, fb := p.ASid%n, p.BSid%n
		t.ufOps = append(t.ufOps, ufOp{fa, fb, false})
		if uf.Same(int(fa), int(fb)) {
			return true
		}
		t0 := time.Now()
		accepted, cells := cluster.AlignPair(store, p, cfg)
		t.acc["align.busy"] += time.Since(t0).Seconds()
		t.acc["align.pairs"]++
		t.acc["align.cells"] += float64(cells)
		if accepted {
			t.acc["align.accepted"]++
			t.ufOps = append(t.ufOps, ufOp{fa, fb, true})
			uf.Union(int(fa), int(fb))
		}
		return true
	}
	generate := func(tree *suffixtree.Tree) {
		t.acc["suffixtree.nodes"] += float64(tree.NumNodes())
		t.acc["pairgen.span"] += t.span("pairgen", func() {
			st := pairgen.Generate(tree, pgCfg, process)
			t.acc["pairgen.emitted"] += float64(st.Emitted)
			t.acc["pairgen.skipped"] += float64(st.Skipped)
			t.acc["pairgen.nodes"] += float64(st.NodesVisited)
		})
	}

	access := func(sid int32) []byte { return store.Seq(int(sid)) }
	sids := make([]int32, store.NumSeqs())
	for i := range sids {
		sids[i] = int32(i)
	}
	if cfg.MemBudget > 0 {
		t.acc["gst.suffixes"] += float64(len(suffixtree.EnumerateSuffixes(access, sids, cfg.Psi)))
		before := t.acc["pairgen.span"]
		sweep := t.span("pgst", func() {
			pgst.SweepSerial(store, pgst.Config{W: cfg.W, MinLen: cfg.Psi, SpillBytes: cfg.MemBudget}, func(tree *suffixtree.Tree) bool {
				t.acc["pgst.segments"]++
				generate(tree)
				return true
			})
		})
		t.acc["pgst.sweep"] += sweep - (t.acc["pairgen.span"] - before)
		return uf
	}
	var tree *suffixtree.Tree
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t.acc["suffixtree.build"] += t.span("suffixtree", func() {
		sufs := suffixtree.EnumerateSuffixes(access, sids, cfg.Psi)
		t.acc["gst.suffixes"] += float64(len(sufs))
		tree = suffixtree.Build(access, sufs, cfg.W)
	})
	runtime.ReadMemStats(&ms1)
	t.acc["suffixtree.mallocs"] += float64(ms1.Mallocs - ms0.Mallocs)
	generate(tree)
	return uf
}

// stageAssembly farms the clusters over GOMAXPROCS workers as
// assembly.AssembleAllGuarded does, timing each cluster. The clusters'
// spans are added afterwards (the recorder is single-threaded); they
// overlap when workers run side by side.
func (t *tracer) stageAssembly(store seq.Seqs, clusters [][]int, cfg core.Config) [][]assembly.Contig {
	out := make([][]assembly.Contig, len(clusters))
	type interval struct{ start, end time.Duration }
	took := make([]interval, len(clusters))
	end := t.rec.begin("assembly")
	parent := len(t.rec.spans) - 1
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				took[i].start = time.Since(t.rec.t0)
				out[i], _ = assembly.AssembleClusterGuarded(store, i, clusters[i], cfg.Assembly, *cfg.AssemblyGuard)
				took[i].end = time.Since(t.rec.t0)
			}
		}()
	}
	for i := range clusters {
		next <- i
	}
	close(next)
	wg.Wait()
	end()
	for i, iv := range took {
		t.rec.spans = append(t.rec.spans, Span{Name: "assembly.cluster", Workload: t.rec.workload, Parent: parent, Start: int64(iv.start), End: int64(iv.end)})
		d := (iv.end - iv.start).Seconds()
		t.acc["assembly.busy"] += d
		if d > t.acc["assembly.largest"] {
			t.acc["assembly.largest"] = d
		}
		for _, fid := range clusters[i] {
			t.acc["assembly.bases"] += float64(store.SeqLen(fid))
		}
	}
	t.acc["assembly.clusters"] += float64(len(clusters))
	return out
}

// stage replays one input through the workload's layers in process
// and returns the bytes the program should have written for it.
func (t *tracer) stage(w *workload, in input, dir string) ([]byte, error) {
	var (
		frags []*seq.Fragment
		out   []byte
		err   error
	)
	end := t.rec.begin("run")
	defer end()

	t.acc["seq.parse"] += t.span("seq.parse", func() { frags, err = readInput(in) })
	if err != nil {
		return nil, err
	}
	t.acc["seq.parse_bytes"] += fileSize(in.fasta) + fileSize(in.qual)

	if w.clusterOnly {
		var store *seq.Store
		t.span("seq.store", func() { store = seq.NewStore(frags) })
		uf := t.stageClustering(store, clusterConfig())
		labels := cluster.PartitionLabels(&cluster.Result{N: store.N(), UF: uf})
		t.acc["seq.write"] += t.span("seq.write", func() {
			out = partitionTSV(store, labels)
			err = os.WriteFile(filepath.Join(dir, "staged.tsv"), out, 0o644)
		})
		t.acc["seq.write_bytes"] += float64(len(out))
		return out, err
	}

	cfg := pipelineConfig(in.qual != "", 0)
	if cfg.PreprocessEnabled {
		t.acc["preprocess.reads"] += float64(len(frags))
		t.acc["preprocess.busy"] += t.span("preprocess", func() { frags, _ = preprocess.Run(frags, cfg.Preprocess) })
	}
	var store seq.Seqs
	if w.outOfCore {
		cfg.Cluster.MemBudget = envMemBudget
		var ds *diskstore.Store
		storeDir := filepath.Join(dir, "staged-store")
		t.acc["diskstore.create"] += t.span("diskstore", func() {
			if err = os.MkdirAll(storeDir, 0o755); err == nil {
				ds, err = diskstore.Create(storeDir, frags, diskstore.Options{})
			}
		})
		if err != nil {
			return nil, err
		}
		defer func() {
			hits, misses := ds.CacheStats()
			t.acc["diskstore.hits"] += float64(hits)
			t.acc["diskstore.misses"] += float64(misses)
			ds.Close()
		}()
		t.acc["diskstore.create_bases"] += float64(ds.TotalBases())
		store = ds
	} else {
		t.span("seq.store", func() { store = seq.NewStore(frags) })
	}

	uf := t.stageClustering(store, cfg.Cluster)
	var clusters [][]int
	for _, g := range uf.Groups() {
		if len(g) > 1 {
			clusters = append(clusters, g)
		}
	}
	contigs := t.stageAssembly(store, clusters, cfg)
	t.acc["seq.write"] += t.span("seq.write", func() {
		if out, err = contigsFASTA(contigs); err == nil {
			err = os.WriteFile(filepath.Join(dir, "staged.fa"), out, 0o644)
		}
	})
	t.acc["seq.write_bytes"] += float64(len(out))
	return out, err
}

// traced is the -trace 1 run. It prepares unit 0 of the seed, replays
// every input of it in process under spans, then spends the rest of
// the window on untraced runs of the program over the same unit —
// right after the replay, so that the machine is in the same state for
// both sides of the trace.* ratios. The replay is checked against the
// library's own serial composition and against the program's output.
// Last come the microbenchmarks of the layers on the workload's path.
// Exact counts come from unit 0 alone, so they repeat for a seed.
func (w *workload) traced(ctx context.Context, binDir, scratch string, seed int64, window time.Duration) outcome {
	oc := outcome{metrics: map[string]stat{}}
	set := func(name string, v float64) { oc.metrics[name] = stat{Value: v} }
	// check counts one attempted step and, when it went wrong, one
	// failure: a replay, a program run, a comparison, a microbenchmark.
	check := func(err error) bool {
		oc.attempted++
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			oc.failed++
		}
		return err == nil
	}
	start := time.Now()

	u, err := w.prepare(ctx, binDir, scratch, seed, 0)
	if !check(err) {
		return oc
	}
	// The service unit runs first: its server is already up, and its
	// job timings feed the jobs.* rows.
	var svc sample
	var walls []float64
	if w.jobs > 0 {
		svc, err = w.run(ctx, binDir, u)
		check(err)
		walls = append(walls, svc.wall)
	}

	t := &tracer{rec: newRecorder(w.name), acc: map[string]float64{}}
	staged := make([][]byte, len(u.inputs))
	var stagedS []float64
	for j, in := range u.inputs {
		t0 := time.Now()
		staged[j], err = t.stage(w, in, u.dir)
		if check(err) {
			stagedS = append(stagedS, time.Since(t0).Seconds())
		}
	}
	oc.spans = t.rec.spans

	sameAsStaged := func(by *workload) error {
		for j, in := range u.inputs {
			if !u.failed[j] && !bytes.Equal(u.outputs[j], staged[j]) {
				return fmt.Errorf("%s: program output for %s differs from the staged replay", by.name, filepath.Base(in.fasta))
			}
		}
		return nil
	}
	// runOnce is one untraced run of a program over the unit.
	runOnce := func(by *workload) (float64, bool) {
		s, err := by.run(ctx, binDir, u)
		if err == nil {
			err = sameAsStaged(by)
		}
		return s.wall, check(err)
	}
	switch {
	case w.jobs > 0:
		check(sameAsStaged(w))
	case w.clusterOnly:
		// The two transports alternate, so that their difference, the
		// transport tax, comes from interleaved runs.
		inproc, _ := findWorkload("maize_p4")
		tcp, _ := findWorkload("maize_p4_tcp")
		var inprocWalls, tcpWalls []float64
		for i := 0; (i < 2 || time.Since(start) < window) && ctx.Err() == nil; i++ {
			a, okA := runOnce(inproc)
			b, okB := runOnce(tcp)
			if !okA || !okB {
				break
			}
			inprocWalls, tcpWalls = append(inprocWalls, a), append(tcpWalls, b)
		}
		set("nettrans.tax_s", median(tcpWalls)-median(inprocWalls))
		if walls = inprocWalls; w == tcp {
			walls = tcpWalls
		}
	default:
		for i := 0; (i < 2 || time.Since(start) < window) && ctx.Err() == nil; i++ {
			wall, ok := runOnce(w)
			if !ok {
				break
			}
			walls = append(walls, wall)
		}
	}
	total, inLayers := rootTimes(t.rec.spans)
	set("trace.layer_sum_over_wall", ratio(inLayers, median(walls)))
	set("trace.overhead_ratio", ratio(total, median(walls)))

	for j, in := range u.inputs {
		want, err := w.reference(in)
		if err == nil && !bytes.Equal(staged[j], want) {
			err = fmt.Errorf("%s: staged replay of %s differs from the library's serial run", w.name, filepath.Base(in.fasta))
		}
		check(err)
	}

	t.layerMetrics(set)
	frags, err := readInput(u.inputs[0])
	if !check(err) {
		return oc
	}
	switch {
	case w.clusterOnly:
		check(w.parallelLayers(frags, staged[0], t.acc, set))
		parMicro(set)
		wireMicro(set)
		check(nettransMicro(u.dir, set))
	case w.outOfCore:
		check(diskstoreMicro(u.dir, frags, set))
		check(checkpointCost(u.dir, frags, true, set))
	case w.jobs > 0:
		check(journalMicro(u.dir, set))
		check(checkpointCost(u.dir, frags, false, set))
		ss := svc.service
		set("jobs.submit_ack_p50_ms", median(ss.submitAckMs))
		set("jobs.cached_submit_p50_ms", median(ss.cachedSubmitMs))
		set("jobs.queue_wait_p50_ms", median(ss.queueWaitMs))
		set("jobs.attempt_p50_s", median(ss.attemptS))
		set("jobs.spawn_overhead_ms", (median(ss.attemptS)-median(stagedS))*1e3)
	}
	return oc
}

// layerMetrics turns the replay's counts and busy totals into the
// metrics of the layers every workload's replay passes through.
func (t *tracer) layerMetrics(set func(string, float64)) {
	a := t.acc
	ufBusy := replayUnionFind(t.ufN, t.ufOps)
	set("seq.fasta_parse_mb_per_s", ratio(a["seq.parse_bytes"]/mb, a["seq.parse"]))
	set("seq.fasta_write_mb_per_s", ratio(a["seq.write_bytes"]/mb, a["seq.write"]))
	set("preprocess.busy_s", a["preprocess.busy"])
	set("preprocess.reads_per_s", ratio(a["preprocess.reads"], a["preprocess.busy"]))
	set("diskstore.create_mb_per_s", ratio(a["diskstore.create_bases"]/mb, a["diskstore.create"]))
	set("diskstore.cache_hit_ratio", ratio(a["diskstore.hits"], a["diskstore.hits"]+a["diskstore.misses"]))
	set("suffixtree.build_s", a["suffixtree.build"])
	set("suffixtree.nodes", a["suffixtree.nodes"])
	if a["suffixtree.build"] > 0 {
		set("suffixtree.suffixes_per_s", ratio(a["gst.suffixes"], a["suffixtree.build"]))
		set("suffixtree.allocs_per_suffix", ratio(a["suffixtree.mallocs"], a["gst.suffixes"]))
	}
	set("pgst.sweep_serial_s", a["pgst.sweep"])
	set("pgst.sweep_suffixes_per_s", ratio(a["gst.suffixes"], a["pgst.sweep"]))
	set("pgst.spill_segments", a["pgst.segments"])
	pairgenSelf := a["pairgen.span"] - a["align.busy"] - ufBusy
	set("pairgen.self_s", pairgenSelf)
	set("pairgen.pairs_per_s", ratio(a["pairgen.emitted"], pairgenSelf))
	set("pairgen.emitted", a["pairgen.emitted"])
	set("pairgen.nodes_visited", a["pairgen.nodes"])
	set("pairgen.dup_skipped_ratio", ratio(a["pairgen.skipped"], a["pairgen.skipped"]+a["pairgen.emitted"]))
	set("align.busy_s", a["align.busy"])
	set("align.pairs_aligned", a["align.pairs"])
	set("align.cells_per_s", ratio(a["align.cells"], a["align.busy"]))
	set("align.us_per_pair", ratio(a["align.busy"]*1e6, a["align.pairs"]))
	set("align.accept_ratio", ratio(a["align.accepted"], a["align.pairs"]))
	set("unionfind.busy_s", ufBusy)
	set("unionfind.ops_per_s", ratio(float64(len(t.ufOps)), ufBusy))
	set("cluster.serial_s", a["suffixtree.build"]+a["pgst.sweep"]+a["pairgen.span"])
	set("cluster.savings_ratio", ratio(a["pairgen.emitted"]-a["align.pairs"], a["pairgen.emitted"]))
	set("cluster.nproc", float64(runtime.NumCPU()))
	set("assembly.busy_s", a["assembly.busy"])
	set("assembly.bases_per_s", ratio(a["assembly.bases"], a["assembly.busy"]))
	set("assembly.clusters", a["assembly.clusters"])
	set("assembly.largest_cluster_s", a["assembly.largest"])
	set("assembly.largest_cluster_share", ratio(a["assembly.largest"], a["assembly.busy"]))
}

// parallelLayers times the 4-rank GST build and the 4-rank clustering
// in process, with the run's own tracer feeding the modeled-clock
// analysis, and checks the parallel partition against the serial one
// the replay produced.
func (w *workload) parallelLayers(frags []*seq.Fragment, serialTSV []byte, a map[string]float64, set func(string, float64)) error {
	const ranks = 4
	store := seq.NewStore(frags)
	cfg := clusterConfig()

	t0 := time.Now()
	par.Run(par.DefaultConfig(ranks), func(c *par.Comm) {
		pgst.Build(c, store, pgst.Config{W: cfg.W, MinLen: cfg.Psi, FirstOwner: 1, Seed: 12345})
	})
	set("pgst.build_p4_s", time.Since(t0).Seconds())

	tr := obs.NewTracer(ranks, obs.DefaultRingCap)
	pcfg := cluster.DefaultParallelConfig(ranks)
	pcfg.Trace = tr
	t0 = time.Now()
	res, ph, err := cluster.Parallel(store, cfg, pcfg)
	wall := time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	if !bytes.Equal(partitionTSV(store, cluster.PartitionLabels(res)), serialTSV) {
		return fmt.Errorf("%s: in-process 4-rank partition differs from the serial one", w.name)
	}
	set("cluster.parallel_p4_s", wall)
	set("cluster.parallel_speedup", ratio(a["suffixtree.build"]+a["pairgen.span"], wall))
	set("cluster.overaligned_ratio", ratio(float64(res.Stats.Aligned), a["align.pairs"]))
	set("par.msgs", float64(ph.GST.TotalMsgs+ph.Cluster.TotalMsgs))
	set("par.bytes", float64(ph.GST.TotalBytes+ph.Cluster.TotalBytes))
	rep, err := analyze.FromTracer(tr, analyze.Options{TopSpans: 1})
	if err != nil {
		return fmt.Errorf("analyzing the 4-rank trace: %w", err)
	}
	set("par.model_makespan_s", rep.MakespanSec)
	set("par.model_comm_s", rep.CommSec)
	set("par.model_comp_s", rep.CompSec)
	set("par.model_idle_s", rep.IdleSec)
	set("par.wall_over_model", ratio(wall, rep.MakespanSec))
	return nil
}

// checkpointCost is what the manifest and phase artifacts add to one
// input: pipeline.Run with a workdir against core.Run without. The
// difference is milliseconds between runs of a second, so the two
// alternate for two seconds (at least twice) and the fastest of each
// side is taken.
func checkpointCost(dir string, frags []*seq.Fragment, outOfCore bool, set func(string, float64)) error {
	cfg := pipelineConfig(false, 0)
	plainCfg := cfg
	if outOfCore {
		cfg.Store.Backend = core.StoreDisk // the pipeline anchors it under the workdir
		cfg.Cluster.MemBudget = envMemBudget
		plainCfg = cfg
		plainCfg.Store.Dir = filepath.Join(dir, "checkpoint-plain-store") // else it lands in os.TempDir
	}
	workdir := filepath.Join(dir, "checkpoint-work")
	timed := func(run func() (*core.Result, error)) (float64, error) {
		t0 := time.Now()
		res, err := run()
		if err != nil {
			return 0, err
		}
		d := time.Since(t0).Seconds()
		return d, res.Close()
	}
	var plain, checkpointed []float64
	for start := time.Now(); len(plain) < 2 || time.Since(start) < 2*time.Second; {
		d, err := timed(func() (*core.Result, error) { return core.Run(frags, plainCfg) })
		if err != nil {
			return err
		}
		plain = append(plain, d)
		d, err = timed(func() (*core.Result, error) {
			return pipeline.Run(frags, pipeline.Config{Core: cfg, Workdir: workdir, Flags: "benchmark"})
		})
		if err != nil {
			return err
		}
		checkpointed = append(checkpointed, d)
	}
	set("pipeline.checkpoint_s", sortedCopy(checkpointed)[0]-sortedCopy(plain)[0])

	var size int64
	err := filepath.Walk(workdir, func(path string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() && filepath.Base(filepath.Dir(path)) != "store" {
			size += fi.Size()
		}
		return err
	})
	set("pipeline.checkpoint_bytes", float64(size))
	return err
}
