package obs_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/collector"
)

// streamRun emits emits[i] merge events on every rank of an in-process
// machine, flushing the stream after each batch, closes it and returns
// the tracer and the stream's path.
func streamRun(t *testing.T, ranks, ringCap int, emits []int) (*obs.Tracer, string) {
	t.Helper()
	tr := obs.NewTracer(ranks, ringCap)
	path := filepath.Join(t.TempDir(), "ev.json")
	covers := make([]int, ranks)
	for r := range covers {
		covers[r] = r
	}
	rep := collector.StartReporter(collector.ReporterConfig{Path: path, Covers: covers, Tracer: tr})
	n := 0
	for _, k := range emits {
		for i := 0; i < k; i++ {
			for r := 0; r < ranks; r++ {
				tr.Emit(r, obs.EvClusterMerge, 0, 0, int64(n), 0, 0)
			}
			n++
		}
		if err := rep.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := rep.Close(true, ""); err != nil {
		t.Fatal(err)
	}
	return tr, path
}

// TestStreamEndsWithRetainedEvents: for a finished process, the folded
// stream of each owned rank ends with exactly the tracer's retained
// events, and loses only what the ring evicted before a record read
// it, counted in-band. When the ring never wrapped, the two are equal.
func TestStreamEndsWithRetainedEvents(t *testing.T) {
	for _, tc := range []struct {
		name    string
		ringCap int
		emits   []int
	}{
		{"never-wrapped", 64, []int{10, 5, 0, 7}},
		{"wrapped-between-records", 8, []int{5, 20, 3}},
		{"wrapped-before-first-record", 4, []int{9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, path := streamRun(t, 3, tc.ringCap, tc.emits)
			emitted := 0
			for _, k := range tc.emits {
				emitted += k
			}
			s, err := obs.ReadStreamFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got, want := s.Dump, tr.Dump()
			if len(got.Ranks) != len(want.Ranks) {
				t.Fatalf("folded %d ranks, tracer has %d", len(got.Ranks), len(want.Ranks))
			}
			for r, rd := range got.Ranks {
				kept := want.Ranks[r].Events
				if len(rd.Events) < len(kept) || !reflect.DeepEqual(rd.Events[len(rd.Events)-len(kept):], kept) {
					t.Fatalf("rank %d: folded stream does not end with the retained events", r)
				}
				if len(rd.Events)+int(rd.Dropped) != emitted {
					t.Fatalf("rank %d: %d events + %d dropped, %d emitted", r, len(rd.Events), rd.Dropped, emitted)
				}
				if want.Ranks[r].Dropped == 0 && (rd.Dropped != 0 || !reflect.DeepEqual(rd.Events, kept)) {
					t.Fatalf("rank %d: the ring never wrapped, yet the fold differs from Tracer.Dump", r)
				}
			}
		})
	}
}

// TestStreamCutAtAnyByte: a stream cut at any byte — a writer
// SIGKILLed mid-append — reads as the whole records before the cut,
// with its ranks marked truncated, and the read never fails.
func TestStreamCutAtAnyByte(t *testing.T) {
	var recs []obs.Record
	for i := 0; i < 4; i++ {
		recs = append(recs, obs.Record{Rank: 1, Size: 2, Covers: []int{1}, Streams: []obs.RankDump{{
			Rank: 1, Dropped: uint64(i % 2),
			Events: []obs.Event{{Kind: obs.EvClusterMerge, Rank: 1, A: int64(i)}, {Kind: obs.EvClusterMerge, Rank: 1, A: int64(-i)}},
		}}})
	}
	recs[len(recs)-1].Final, recs[len(recs)-1].ExitOK = true, true
	var buf bytes.Buffer
	var ends []int // byte offset just past each record
	for i := range recs {
		if err := obs.WriteRecord(&buf, &recs[i]); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, buf.Len())
	}
	full := buf.Bytes()
	for cut := 0; cut <= len(full); cut++ {
		whole := 0
		for whole < len(ends) && ends[whole] <= cut {
			whole++
		}
		s, err := obs.ReadStream(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("cut at byte %d: %v", cut, err)
		}
		if s.Records != whole || s.Final != (whole == len(recs)) {
			t.Fatalf("cut at byte %d: %d records (final %v), want %d", cut, s.Records, s.Final, whole)
		}
		var events []obs.Event
		var dropped uint64
		for _, rc := range recs[:whole] {
			events = append(events, rc.Streams[0].Events...)
			dropped += rc.Streams[0].Dropped
		}
		if whole > 0 && whole < len(recs) {
			dropped++ // no final record: the tail is missing
		}
		if whole == 0 {
			if len(s.Dump.Ranks) != 0 {
				t.Fatalf("cut at byte %d: no whole record, yet %d ranks", cut, len(s.Dump.Ranks))
			}
			continue
		}
		if rd := s.Dump.Ranks[1]; !reflect.DeepEqual(rd.Events, events) || rd.Dropped != dropped {
			t.Fatalf("cut at byte %d: rank 1 %+v, want %d events and %d dropped", cut, rd, len(events), dropped)
		}
	}
}

// TestStreamFoldKeepsRingCapacity: however long a stream, its fold
// keeps each rank's last DefaultRingCap events, as a tracer of the
// default capacity retains them, and counts the rest as dropped.
func TestStreamFoldKeepsRingCapacity(t *testing.T) {
	const batch = 1000
	total := 2*obs.DefaultRingCap + batch/2
	var buf bytes.Buffer
	for n := 0; n < total; n += batch {
		var evs []obs.Event
		for i := n; i < min(n+batch, total); i++ {
			evs = append(evs, obs.Event{Kind: obs.EvClusterMerge, Rank: 1, A: int64(i)})
		}
		rec := obs.Record{Rank: 1, Size: 2, Covers: []int{1}, Final: n+batch >= total, ExitOK: true,
			Streams: []obs.RankDump{{Rank: 1, Dropped: 3, Events: evs}}}
		if err := obs.WriteRecord(&buf, &rec); err != nil {
			t.Fatal(err)
		}
	}
	s, err := obs.ReadStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rd := s.Dump.Ranks[1]
	batches := (total + batch - 1) / batch
	if len(rd.Events) != obs.DefaultRingCap || rd.Dropped != uint64(total-obs.DefaultRingCap+3*batches) {
		t.Fatalf("fold kept %d events, %d dropped; want %d and %d",
			len(rd.Events), rd.Dropped, obs.DefaultRingCap, total-obs.DefaultRingCap+3*batches)
	}
	for i, e := range rd.Events {
		if want := int64(total - obs.DefaultRingCap + i); e.A != want {
			t.Fatalf("event %d of the fold is #%d, want #%d", i, e.A, want)
		}
	}
}

// TestReadStreamRejects: a line no writer produces is an error, not a
// silently empty trace, and a line of another format version says so.
func TestReadStreamRejects(t *testing.T) {
	for in, want := range map[string]string{
		"not json\n":                      "invalid character",
		`{"version":1,"ranks":[]}` + "\n": "version 1 events dump",
		`{"version":3,"rank":0,"size":1,"covers":[0],"new":true}` + "\n":                                                      "unsupported events stream format: version 3, this reader takes 2",
		`{"rank":0,"size":1,"covers":[0]}` + "\n":                                                                             "version 0",
		`{"version":2,"rank":0,"size":0,"covers":[0]}` + "\n":                                                                 "machine size 0",
		`{"version":2,"rank":0,"size":2,"covers":[2]}` + "\n":                                                                 "rank out of range",
		`{"version":2,"rank":0,"size":1,"covers":[0],"ranks":[]}` + "\n":                                                      "unknown field",
		`{"version":2,"rank":0,"size":1,"covers":[0]}` + "\n" + "{\n" + `{"version":2,"rank":0,"size":1,"covers":[0]}` + "\n": "record 2",
	} {
		_, err := obs.ReadStream(bytes.NewReader([]byte(in)))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("read %q: %v, want an error naming %q", in, err, want)
		}
	}
}

// fuzzSeeds are the committed FuzzReadDump corpus.
func fuzzSeeds() map[string][]byte {
	var whole bytes.Buffer
	tr := obs.NewTracer(2, 8)
	for i := 0; i < 12; i++ {
		tr.EmitSeq(i%2, obs.EvSendEnd, float64(i), 0, int64(1-i%2), 7, 8, uint64(i+1))
	}
	tr.WriteEvents(&whole)
	var live bytes.Buffer
	obs.WriteRecord(&live, &obs.Record{Job: "j", Rank: 1, PID: 7, Size: 3, Covers: []int{1},
		Metrics: obs.CaptureMetrics(nil),
		Streams: []obs.RankDump{{Rank: 1, Dropped: 2, Events: []obs.Event{{Kind: obs.EvPhaseEnter, Rank: 1, A: obs.PhaseGST}}}}})
	obs.WriteRecord(&live, &obs.Record{Rank: 1, Size: 3, Covers: []int{1}, Final: true, ExitReason: "boom"})
	return map[string][]byte{
		"seed-whole-run":   whole.Bytes(),
		"seed-live-failed": live.Bytes(),
		"seed-torn":        live.Bytes()[:live.Len()-9],
		"seed-empty":       {},
		"seed-old-dump":    []byte(`{"version":1,"ranks":[{"rank":0,"events":[]}]}` + "\n"),
		"seed-huge-size":   []byte(`{"version":2,"rank":0,"size":1000000000,"covers":[0]}` + "\n"),
	}
}

// FuzzReadDump: no input panics the fold, and one it accepts holds
// every rank at its own index and reads, cut at any byte, as a stream
// of its whole records before the cut.
func FuzzReadDump(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := obs.ReadStream(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, rd := range s.Dump.Ranks {
			if rd.Rank != i {
				t.Fatalf("rank %d folded at index %d", rd.Rank, i)
			}
		}
		cut := len(data) / 2
		p, err := obs.ReadStream(bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatalf("a prefix of an accepted stream fails: %v", err)
		}
		if want := bytes.Count(data[:cut], []byte("\n")); p.Records != want {
			t.Fatalf("prefix of %d bytes: %d records, want %d", cut, p.Records, want)
		}
	})
}

// TestWriteFuzzCorpus regenerates the committed FuzzReadDump seed
// corpus (run explicitly with WRITE_FUZZ_CORPUS=1; skipped otherwise).
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate the corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzReadDump")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range fuzzSeeds() {
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
