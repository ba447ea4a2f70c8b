package prof

import (
	"runtime/metrics"

	"repro/internal/obs"
)

// Runtime health gauges the sampler maintains. They live in the
// ordinary metrics registry, so they stream to a run collector with
// every report and surface in the runtime column of `asmprof URL`'s
// live watch (runtimeCol in cmd/asmprof/watch.go).
const (
	GaugeGCPauseP99  = "runtime_gc_pause_p99_ns"
	GaugeSchedLatP99 = "runtime_sched_latency_p99_ns"
	GaugeHeapLive    = "runtime_heap_live_bytes"
	GaugeHeapGoal    = "runtime_heap_goal_bytes"
	GaugeGCCycles    = "runtime_gc_cycles"
)

var runtimeSamples = []string{
	"/gc/pauses:seconds",
	"/sched/latencies:seconds",
	"/memory/classes/heap/objects:bytes",
	"/gc/heap/goal:bytes",
	"/gc/cycles/total:gc-cycles",
}

// SampleRuntimeMetrics reads the runtime/metrics health set once and
// publishes it as registry gauges. Histogram-valued metrics (GC pause,
// scheduler latency) publish their p99 in nanoseconds. Nil registries
// are a no-op.
func SampleRuntimeMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	for _, s := range samples {
		switch s.Name {
		case "/gc/pauses:seconds":
			if s.Value.Kind() == metrics.KindFloat64Histogram {
				reg.Gauge(GaugeGCPauseP99).Set(int64(histQuantile(s.Value.Float64Histogram(), 0.99) * 1e9))
			}
		case "/sched/latencies:seconds":
			if s.Value.Kind() == metrics.KindFloat64Histogram {
				reg.Gauge(GaugeSchedLatP99).Set(int64(histQuantile(s.Value.Float64Histogram(), 0.99) * 1e9))
			}
		case "/memory/classes/heap/objects:bytes":
			if s.Value.Kind() == metrics.KindUint64 {
				reg.Gauge(GaugeHeapLive).Set(int64(s.Value.Uint64()))
			}
		case "/gc/heap/goal:bytes":
			if s.Value.Kind() == metrics.KindUint64 {
				reg.Gauge(GaugeHeapGoal).Set(int64(s.Value.Uint64()))
			}
		case "/gc/cycles/total:gc-cycles":
			if s.Value.Kind() == metrics.KindUint64 {
				reg.Gauge(GaugeGCCycles).Set(int64(s.Value.Uint64()))
			}
		}
	}
}

// histQuantile returns the q-quantile of a runtime/metrics histogram:
// the upper bound of the first bucket where the cumulative count
// crosses q. Empty histograms return 0; an unbounded top bucket
// reports its lower bound (the runtime's buckets make this rare).
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	if h == nil {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(q * float64(total))
	if want >= total {
		want = total - 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum > want {
			// Bucket i spans Buckets[i]..Buckets[i+1].
			if i+1 < len(h.Buckets) && !isInf(h.Buckets[i+1]) {
				return h.Buckets[i+1]
			}
			if i < len(h.Buckets) && !isInf(h.Buckets[i]) {
				return h.Buckets[i]
			}
			return 0
		}
	}
	return 0
}

func isInf(f float64) bool { return f > 1e300 || f < -1e300 }
