package analyze

import (
	"bytes"
	"testing"

	"repro/internal/obs"
)

// handScriptStream is the hand-scripted dump as the finished events
// stream one process tracing both ranks leaves behind.
func handScriptStream(tb testing.TB) []byte {
	d := handScript(tb)
	var buf bytes.Buffer
	rec := &obs.Record{Size: len(d.Ranks), Covers: []int{0, 1}, Streams: d.Ranks, Final: true, ExitOK: true}
	if err := obs.WriteRecord(&buf, rec); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzAnalyze: asmprof analyzes events streams read from outside the
// program, so every dump ReadStream folds analyzes, in strict and in
// Partial mode, to a report or an error, never a panic. The committed
// corpus is FuzzReadDump's plus the hand-scripted run (seed-hand-script,
// the bytes handScriptStream writes).
func FuzzAnalyze(f *testing.F) {
	f.Add(handScriptStream(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := obs.ReadStream(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, opt := range []Options{{}, {Partial: true}} {
			if rep, err := Analyze(s.Dump, opt); (rep == nil) == (err == nil) {
				t.Fatalf("Partial %v: report %v with error %v", opt.Partial, rep != nil, err)
			}
		}
	})
}
