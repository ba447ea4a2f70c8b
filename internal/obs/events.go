package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// DumpVersion is the current raw events dump format version.
const DumpVersion = 1

// RankDump is one rank's retained event stream plus how many of its
// events ring wraparound evicted (a truncated stream disqualifies the
// strict causal checks).
type RankDump struct {
	Rank    int     `json:"rank"`
	Dropped uint64  `json:"dropped,omitempty"`
	Events  []Event `json:"events"`
}

// Dump is the lossless raw export of a tracer: every retained event of
// every rank, with both clock domains and the per-sender sequence
// numbers intact. The Chrome trace_event export collapses the modeled
// clock to a single timestamp per event, so causal analysis
// (asmprof, internal/obs/analyze) consumes this format instead, and
// asmprof -chrome renders the Chrome form from it on demand.
type Dump struct {
	Version int        `json:"version"`
	Ranks   []RankDump `json:"ranks"`
}

// Dump snapshots the tracer's retained events per rank.
func (t *Tracer) Dump() *Dump {
	d := &Dump{Version: DumpVersion}
	if t == nil {
		return d
	}
	for r := 0; r < t.Ranks(); r++ {
		d.Ranks = append(d.Ranks, RankDump{
			Rank:    r,
			Dropped: t.Dropped(r),
			Events:  t.Events(r),
		})
	}
	return d
}

// WriteJSON writes the dump as a single JSON document.
func (d *Dump) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(d)
}

// WriteEvents writes the tracer's raw events dump to w.
func (t *Tracer) WriteEvents(w io.Writer) error {
	return t.Dump().WriteJSON(w)
}

// ReadDump parses a raw events dump.
func ReadDump(r io.Reader) (*Dump, error) {
	var d Dump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("obs: not an events dump: %w", err)
	}
	if d.Version != DumpVersion {
		return nil, fmt.Errorf("obs: events dump version %d, want %d", d.Version, DumpVersion)
	}
	return &d, nil
}

// MergeDumps combines per-process event dumps into one machine-wide
// dump. Multi-process transport runs write one dump per rank, each
// populating only its own stream; the merge takes, for every rank,
// the unique non-empty stream across the inputs. A rank with traffic
// in two dumps is ambiguous (two processes claimed the same rank) and
// an error. A rank no dump covers — typically a process that was
// SIGKILLed before it could write its dump — is filled with an empty
// stream marked Dropped, which exempts it (and the cross-rank
// matching that would need its sends) from the strict causal checks,
// exactly as a truncated ring does.
func MergeDumps(dumps ...*Dump) (*Dump, error) {
	if len(dumps) == 0 {
		return nil, fmt.Errorf("obs: no dumps to merge")
	}
	byRank := map[int]RankDump{}
	ranks := 0
	for i, d := range dumps {
		for _, rd := range d.Ranks {
			if rd.Rank < 0 {
				return nil, fmt.Errorf("obs: dump %d: negative rank %d", i, rd.Rank)
			}
			if rd.Rank >= ranks {
				ranks = rd.Rank + 1
			}
			if len(rd.Events) == 0 && rd.Dropped == 0 {
				continue // a remote rank's empty stream says nothing
			}
			if prev, ok := byRank[rd.Rank]; ok && (len(prev.Events) > 0 || prev.Dropped > 0) {
				return nil, fmt.Errorf("obs: rank %d has events in more than one dump", rd.Rank)
			}
			byRank[rd.Rank] = rd
		}
	}
	m := &Dump{Version: DumpVersion}
	for r := 0; r < ranks; r++ {
		rd, ok := byRank[r]
		if !ok {
			rd = RankDump{Rank: r, Dropped: 1} // no dump: treat as truncated
		}
		m.Ranks = append(m.Ranks, rd)
	}
	return m, nil
}

// ReadDumpFile reads and parses one raw events dump file.
func ReadDumpFile(path string) (*Dump, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := ReadDump(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}
