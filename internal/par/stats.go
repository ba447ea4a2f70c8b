package par

import "time"

// Stats accumulates one rank's activity over a Run.
//
// Wall and Blocked are measured with real timers; CommModel is the
// α + n/β modeled communication time (seconds) for every message the
// rank sent or received. Computation time is derived as wall time
// minus blocked time. The modeled total a figure reports for a rank is
// Comp + CommModel, which reproduces the communication/computation
// decomposition of the paper's Fig. 5 on an in-process machine.
type Stats struct {
	Wall    time.Duration // real time from rank start to finish
	Blocked time.Duration // real time spent waiting in Recv/Ssend

	CommModel float64 // modeled communication seconds (α + n/β per message)
	CompModel float64 // modeled computation seconds (ChargeCompute)

	MsgsSent  int
	MsgsRecv  int
	BytesSent int
	BytesRecv int

	MsgsDropped int // eager sends discarded by an injected fault plan

	Retransmits     int // frames resent by the reliable-link protocol
	FramesCorrupted int // frames injured by an injected corruption fault

	PeakBufBytes int // high-water mark of this rank's receive buffers
}

// Comp returns the rank's modeled computation seconds. Computation is
// charged analytically (ChargeCompute) rather than measured: the host
// running this in-process machine may have fewer cores than ranks, so
// wall time per rank says nothing about the simulated machine.
func (s Stats) Comp() float64 { return s.CompModel }

// Modeled returns the rank's modeled runtime: computation plus modeled
// communication.
func (s Stats) Modeled() float64 { return s.CompModel + s.CommModel }

// Aggregate summarizes a Run's per-rank stats.
type Aggregate struct {
	Ranks        int
	MaxModeled   float64 // modeled parallel runtime (slowest rank)
	MaxComp      float64
	MaxComm      float64
	SumComp      float64
	SumComm      float64
	MeanIdle     float64 // mean modeled idle fraction: (T_par − T_rank)/T_par
	TotalBytes   int
	TotalMsgs    int
	PeakBufBytes int // max over ranks

	TotalBytesRecv       int
	TotalMsgsRecv        int
	TotalMsgsDropped     int // eager sends discarded by an injected fault plan
	TotalRetransmits     int // frames resent by the reliable-link protocol
	TotalFramesCorrupted int // frames injured by an injected corruption fault
}

// Summarize aggregates per-rank stats.
func Summarize(stats []Stats) Aggregate {
	var a Aggregate
	a.Ranks = len(stats)
	for _, s := range stats {
		if m := s.Modeled(); m > a.MaxModeled {
			a.MaxModeled = m
		}
		if c := s.Comp(); c > a.MaxComp {
			a.MaxComp = c
		}
		if s.CommModel > a.MaxComm {
			a.MaxComm = s.CommModel
		}
		a.SumComp += s.Comp()
		a.SumComm += s.CommModel
		a.TotalBytes += s.BytesSent
		a.TotalMsgs += s.MsgsSent
		a.TotalBytesRecv += s.BytesRecv
		a.TotalMsgsRecv += s.MsgsRecv
		a.TotalMsgsDropped += s.MsgsDropped
		a.TotalRetransmits += s.Retransmits
		a.TotalFramesCorrupted += s.FramesCorrupted
		if s.PeakBufBytes > a.PeakBufBytes {
			a.PeakBufBytes = s.PeakBufBytes
		}
	}
	if a.Ranks > 0 && a.MaxModeled > 0 {
		for _, s := range stats {
			a.MeanIdle += (a.MaxModeled - s.Modeled()) / a.MaxModeled
		}
		a.MeanIdle /= float64(a.Ranks)
	}
	return a
}
