package cluster

import (
	"testing"
	"time"

	"repro/internal/par"
)

// faultPcfg is the common harness for fault runs: small batches so
// workers report many times before the kill steps fire. Crashes are
// detected through the runtime's dead-rank flag, not lease expiry, so
// the lease can stay generous — short enough to bound a hang, long
// enough that a healthy worker is never fired just because the race
// detector slowed its alignments down.
func faultPcfg(p int, plan *par.FaultPlan) ParallelConfig {
	pcfg := DefaultParallelConfig(p)
	pcfg.BatchSize = 16
	pcfg.Faults = plan
	pcfg.LeaseTimeout = 2 * time.Second
	return pcfg
}

// TestFaultKillHalfMatchesSerial is the headline guarantee: with p=5
// ranks, kill ⌈(p−1)/2⌉ = 2 of the 4 workers mid-clustering and the
// surviving machine must still produce exactly the serial partition.
func TestFaultKillHalfMatchesSerial(t *testing.T) {
	st, _ := islandStore(3, 3, 2200, 120)
	cfg := testConfig()
	serial := Serial(st, cfg)
	want := clusterLabels(serial)

	plan := &par.FaultPlan{Seed: 7, Crashes: []par.Crash{
		CrashWorkerAtReport(2, 2),
		CrashWorkerAtReport(4, 4),
	}}
	res, _, err := Parallel(st, cfg, faultPcfg(5, plan))
	if err != nil {
		t.Fatal(err)
	}
	got := clusterLabels(res)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fragment %d in cluster %d, serial says %d", i, got[i], want[i])
		}
	}
	// Merges = n − final components, so partition equality forces it.
	if res.Stats.Merges != serial.Stats.Merges {
		t.Errorf("merges %d != serial %d", res.Stats.Merges, serial.Stats.Merges)
	}
	if res.Stats.WorkersLost != 2 {
		t.Errorf("WorkersLost = %d, want 2", res.Stats.WorkersLost)
	}
	// Adopted regeneration may duplicate pairs, never lose them.
	if res.Stats.Generated < serial.Stats.Generated {
		t.Errorf("generated %d < serial %d: pairs were lost",
			res.Stats.Generated, serial.Stats.Generated)
	}
}

// TestFaultEarlyDeathAdoption kills a worker before its first report
// ever arrives: the master has no results from it at all, and its
// entire GST portion must be swept again on a survivor — in one segment
// beside a resident tree, in bounded segments under a memory budget.
func TestFaultEarlyDeathAdoption(t *testing.T) {
	st, _ := islandStore(6, 2, 1800, 90)
	want := clusterLabels(Serial(st, testConfig()))

	for name, budget := range map[string]int64{"resident": 0, "swept": 32 << 10} {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig()
			cfg.MemBudget = budget
			plan := &par.FaultPlan{Crashes: []par.Crash{CrashWorkerAtReport(1, 1)}}
			res, _, err := Parallel(st, cfg, faultPcfg(3, plan))
			if err != nil {
				t.Fatal(err)
			}
			got := clusterLabels(res)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("fragment %d in cluster %d, serial says %d", i, got[i], want[i])
				}
			}
			if res.Stats.WorkersLost != 1 {
				t.Errorf("WorkersLost = %d, want 1", res.Stats.WorkersLost)
			}
		})
	}
}

// TestFaultGSTDeathGeneratesOnce: a rank that dies during GST
// construction is recovered one way — survivors whose exchange it
// severed sweep their own ranges, and the master hands the dead range to
// one worker — so every pair is generated exactly once: the run
// generates what the fault-free run does, and the partition is Serial's.
func TestFaultGSTDeathGeneratesOnce(t *testing.T) {
	st, _ := islandStore(3, 3, 2200, 120)
	cfg := testConfig()
	want := clusterLabels(Serial(st, cfg))
	clean, _, err := Parallel(st, cfg, faultPcfg(5, nil))
	if err != nil {
		t.Fatal(err)
	}

	for _, spec := range []string{"gstcrash=2@1", "gstcrash=2@2", "gstcrash=3@4"} {
		t.Run(spec, func(t *testing.T) {
			plan, err := ParseFaults(spec)
			if err != nil {
				t.Fatal(err)
			}
			res, ph, err := Parallel(st, cfg, faultPcfg(5, plan))
			if err != nil {
				t.Fatal(err)
			}
			if dead := plan.Crashes[0].Rank; !ph.Exits[dead].FaultKilled {
				t.Fatalf("rank %d did not die: %+v", dead, ph.Exits[dead])
			}
			got := clusterLabels(res)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("fragment %d in cluster %d, serial says %d", i, got[i], want[i])
				}
			}
			if res.Stats.Generated != clean.Stats.Generated {
				t.Errorf("generated %d pairs, the fault-free run %d", res.Stats.Generated, clean.Stats.Generated)
			}
		})
	}
}

// TestFaultAllWorkersDie: with no survivors left the master must
// return an error rather than hang or fabricate a partial result.
func TestFaultAllWorkersDie(t *testing.T) {
	st, _ := islandStore(6, 2, 1800, 90)
	plan := &par.FaultPlan{Crashes: []par.Crash{
		CrashWorkerAtReport(1, 1),
		CrashWorkerAtReport(2, 1),
	}}
	done := make(chan error, 1)
	go func() {
		_, _, err := Parallel(st, testConfig(), faultPcfg(3, plan))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("Parallel succeeded with every worker dead")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Parallel hung with every worker dead")
	}
}

// TestFaultDropRecovery runs with a lossy eager transport. Safety is
// unconditional: if the run completes, the partition is exactly the
// serial one. (Liveness is not: enough distinct drops can fire every
// worker, which surfaces as an explicit error, also accepted here.)
func TestFaultDropRecovery(t *testing.T) {
	st, _ := islandStore(3, 3, 2200, 120)
	cfg := testConfig()
	want := clusterLabels(Serial(st, cfg))

	plan := &par.FaultPlan{Seed: 11, DropProb: 0.02}
	pcfg := faultPcfg(6, plan)
	pcfg.UseSsend = false // drops only affect eager messages
	pcfg.LeaseTimeout = 100 * time.Millisecond
	res, _, err := Parallel(st, cfg, pcfg)
	if err != nil {
		t.Logf("degraded to total worker loss (acceptable): %v", err)
		return
	}
	got := clusterLabels(res)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fragment %d in cluster %d, serial says %d", i, got[i], want[i])
		}
	}
	t.Logf("completed with %d workers lost, %d pairs requeued",
		res.Stats.WorkersLost, res.Stats.Requeued)
}

func TestParseFaults(t *testing.T) {
	plan, err := ParseFaults("crash=2@5,crash=3@9,drop=0.01,delayp=0.5,delay=20ms,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Crashes) != 2 || plan.Crashes[0].Rank != 2 || plan.Crashes[1].AfterSends != 9 {
		t.Errorf("crashes parsed wrong: %+v", plan.Crashes)
	}
	if plan.DropProb != 0.01 || plan.DelayProb != 0.5 || plan.Delay != 20*time.Millisecond || plan.Seed != 7 {
		t.Errorf("plan parsed wrong: %+v", plan)
	}
	plan, err = ParseFaults("gstcrash=3@2,corrupt=0.05,retransmit")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Crashes) != 1 || plan.Crashes[0].Rank != 3 || plan.Crashes[0].AfterSends != 2 {
		t.Errorf("gstcrash parsed wrong: %+v", plan.Crashes)
	}
	if !plan.Retransmit || plan.CorruptProb != 0.05 {
		t.Errorf("reliable-link options parsed wrong: %+v", plan)
	}
	if plan, err = ParseFaults("corrupt=0.1"); err != nil || !plan.Retransmit {
		t.Errorf("corrupt should imply retransmit: %+v, %v", plan, err)
	}
	for _, bad := range []string{
		"", "crash=0@1", "crash=2@0", "crash=2", "drop=1.5", "drop=x",
		"delayp=-1", "delay=fast", "seed=abc", "nonsense=1", "crash",
		"gstcrash=0@1", "gstcrash=2", "corrupt=2", "retransmit=maybe",
	} {
		if _, err := ParseFaults(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// TestFaultEndToEndCombined is the acceptance scenario for the
// end-to-end fault model: one run with a rank crash during GST
// construction, frame corruption on every eager message, and a worker
// crash during clustering — and the partition must still be exactly
// the serial one.
func TestFaultEndToEndCombined(t *testing.T) {
	st, _ := islandStore(3, 3, 2200, 120)
	cfg := testConfig()
	serial := Serial(st, cfg)
	want := clusterLabels(serial)

	plan, err := ParseFaults("gstcrash=2@2,crash=4@3,corrupt=0.02,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	res, ph, err := Parallel(st, cfg, faultPcfg(6, plan))
	if err != nil {
		t.Fatal(err)
	}
	got := clusterLabels(res)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fragment %d in cluster %d, serial says %d", i, got[i], want[i])
		}
	}
	if res.Stats.Merges != serial.Stats.Merges {
		t.Errorf("merges %d != serial %d", res.Stats.Merges, serial.Stats.Merges)
	}
	// The GST-phase death is detected by the clustering master, so both
	// crashes count as lost workers.
	if res.Stats.WorkersLost != 2 {
		t.Errorf("WorkersLost = %d, want 2", res.Stats.WorkersLost)
	}
	// The corrupting wire must have been exercised and healed.
	if n := ph.GST.TotalFramesCorrupted + ph.Cluster.TotalFramesCorrupted; n == 0 {
		t.Error("2% corruption injured no frames")
	}
	if n := ph.GST.TotalRetransmits + ph.Cluster.TotalRetransmits; n == 0 {
		t.Error("corrupted frames caused no retransmissions")
	}
}
