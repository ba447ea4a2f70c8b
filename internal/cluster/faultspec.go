package cluster

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/par"
)

// CrashWorkerAtReport schedules worker rank w to die immediately
// before sending its n-th report — the deterministic mid-clustering
// kill the fault tests and experiments use (the report tag is private
// to this package, hence the constructor).
func CrashWorkerAtReport(w, n int) par.Crash {
	return par.Crash{Rank: w, AfterSends: n, Tag: tagReport}
}

// ParseFaults builds a FaultPlan from a compact comma-separated spec,
// the format of asmcluster's -faults flag:
//
//	crash=RANK@N      kill rank RANK before its N-th report (repeatable)
//	gstcrash=RANK@N   kill rank RANK before its N-th all-to-all send,
//	                  i.e. during GST construction (repeatable); a
//	                  spilling build (a memory budget) sends none, so
//	                  there it never fires
//	drop=P            drop each eager message with probability P
//	delay=DUR         delivery delay for delayed messages (e.g. 20ms)
//	delayp=P          probability a message is delayed
//	retransmit        frame every eager send with a length+CRC32C
//	                  envelope and retransmit dropped/corrupted frames
//	corrupt=P         corrupt each framed send with probability P
//	                  (implies retransmit)
//	seed=S            RNG seed for drops/delays/corruption (default 1)
//
// Example: "crash=2@5,gstcrash=3@1,corrupt=0.01,seed=7".
func ParseFaults(spec string) (*par.FaultPlan, error) {
	plan := &par.FaultPlan{Seed: 1}
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("cluster: empty fault spec")
	}
	for _, field := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			if key == "retransmit" { // valueless form: "retransmit"
				plan.Retransmit = true
				continue
			}
			return nil, fmt.Errorf("cluster: fault spec field %q is not key=value", field)
		}
		switch key {
		case "crash", "gstcrash":
			rank, n, err := parseRankStep(key, val)
			if err != nil {
				return nil, err
			}
			crash := CrashWorkerAtReport(rank, n)
			if key == "gstcrash" {
				crash = par.CrashAtAlltoallSend(rank, n)
			}
			plan.Crashes = append(plan.Crashes, crash)
		case "drop":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return nil, fmt.Errorf("cluster: bad drop probability %q", val)
			}
			plan.DropProb = p
		case "delayp":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return nil, fmt.Errorf("cluster: bad delay probability %q", val)
			}
			plan.DelayProb = p
		case "retransmit":
			if val != "" && val != "1" && val != "true" {
				return nil, fmt.Errorf("cluster: bad retransmit value %q", val)
			}
			plan.Retransmit = true
		case "corrupt":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return nil, fmt.Errorf("cluster: bad corrupt probability %q", val)
			}
			plan.CorruptProb = p
			plan.Retransmit = true
		case "delay":
			d, err := time.ParseDuration(val)
			if err != nil {
				return nil, fmt.Errorf("cluster: bad delay %q: %v", val, err)
			}
			plan.Delay = d
		case "seed":
			s, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("cluster: bad seed %q: %v", val, err)
			}
			plan.Seed = s
		default:
			return nil, fmt.Errorf("cluster: unknown fault spec key %q", key)
		}
	}
	return plan, nil
}

// parseRankStep parses the RANK@N value of a crash or gstcrash field: a
// worker rank ≥ 1 and a step ≥ 1.
func parseRankStep(key, val string) (rank, n int, err error) {
	rs, ns, ok := strings.Cut(val, "@")
	if !ok {
		return 0, 0, fmt.Errorf("cluster: %s spec %q is not RANK@N", key, val)
	}
	if rank, err = strconv.Atoi(rs); err != nil {
		return 0, 0, fmt.Errorf("cluster: bad %s rank %q: %v", key, rs, err)
	}
	if n, err = strconv.Atoi(ns); err != nil {
		return 0, 0, fmt.Errorf("cluster: bad %s step %q: %v", key, ns, err)
	}
	if rank < 1 || n < 1 {
		return 0, 0, fmt.Errorf("cluster: %s %q must name a worker rank ≥ 1 and step ≥ 1", key, val)
	}
	return rank, n, nil
}
