package cluster

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/par"
)

// clusterMetrics bundles the observability handles the master and
// workers update during a parallel run. Built from a nil Registry all
// handles are nil and every update is a no-op, so the struct is passed
// unconditionally.
type clusterMetrics struct {
	reg *obs.Registry

	pairsGenerated *obs.Counter // pairs received from workers
	pairsSkipped   *obs.Counter // discarded: fragments already clustered
	pairsAligned   *obs.Counter // pairs dispatched for alignment
	pairsAccepted  *obs.Counter // alignments that met the criteria
	merges         *obs.Counter // successful union–find merges
	workersLost    *obs.Counter // leases expired / crashes detected
	reports        *obs.Counter // reports the master processed

	pendingDepth *obs.Gauge // current master pending-queue depth
	pendingPeak  *obs.Gauge // high-water mark of the pending queue

	alignLen     *obs.Histogram // exact-match anchor length per aligned pair
	batchLatency *obs.Histogram // worker wall seconds per alignment batch
}

func newClusterMetrics(r *obs.Registry) clusterMetrics {
	return clusterMetrics{
		reg:            r,
		pairsGenerated: r.Counter("cluster_pairs_generated"),
		pairsSkipped:   r.Counter("cluster_pairs_skipped"),
		pairsAligned:   r.Counter("cluster_pairs_aligned"),
		pairsAccepted:  r.Counter("cluster_pairs_accepted"),
		merges:         r.Counter("cluster_merges"),
		workersLost:    r.Counter("cluster_workers_lost"),
		reports:        r.Counter("cluster_master_reports"),
		pendingDepth:   r.Gauge("cluster_pending_depth"),
		pendingPeak:    r.Gauge("cluster_pending_depth_peak"),
		alignLen: r.Histogram("cluster_align_match_len",
			[]float64{10, 20, 40, 80, 160, 320, 640}),
		batchLatency: r.Histogram("cluster_batch_latency_seconds",
			[]float64{1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1}),
	}
}

// publishRankStats exports each rank's traffic totals as gauges once a
// run finishes (per-rank bytes and message counts, both directions).
func (m clusterMetrics) publishRankStats(stats []par.Stats) {
	if m.reg == nil {
		return
	}
	for r, s := range stats {
		p := fmt.Sprintf("par_rank%d_", r)
		m.reg.Gauge(p + "bytes_sent").Set(int64(s.BytesSent))
		m.reg.Gauge(p + "bytes_recv").Set(int64(s.BytesRecv))
		m.reg.Gauge(p + "msgs_sent").Set(int64(s.MsgsSent))
		m.reg.Gauge(p + "msgs_recv").Set(int64(s.MsgsRecv))
		if s.MsgsDropped > 0 {
			m.reg.Gauge(p + "msgs_dropped").Set(int64(s.MsgsDropped))
		}
		if s.Retransmits > 0 {
			m.reg.Gauge(p + "retransmits").Set(int64(s.Retransmits))
		}
		if s.FramesCorrupted > 0 {
			m.reg.Gauge(p + "frames_corrupted").Set(int64(s.FramesCorrupted))
		}
	}
}
