package prof

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"
)

// WriteFolded renders profiles in collapsed-stack ("folded") format,
// one line per unique stack summed across ps: root-first frames joined
// with ';' and the value of the sample type named value (in a profile
// with no type of that name, its last type — pprof's default). Rank
// and phase labels become synthetic root frames so a flamegraph groups
// by phase first — exactly the view "which functions burn the
// critical-path phase" needs — and stacks of different ranks stay
// apart.
func WriteFolded(w io.Writer, ps []*Profile, value string) error {
	totals := map[string]int64{}
	for _, p := range ps {
		vi := p.valueIndex(value)
		for i := range p.Samples {
			s := &p.Samples[i]
			if vi < 0 || vi >= len(s.Values) {
				continue
			}
			var b strings.Builder
			if ph := s.Label(LabelPhase); ph != "" {
				b.WriteString("phase:" + ph + ";")
			}
			if rk := s.Label(LabelRank); rk != "" {
				b.WriteString("rank:" + rk + ";")
			}
			for j := len(s.Stack) - 1; j >= 0; j-- { // leaf-first stored; folded wants root-first
				b.WriteString(s.Stack[j].Function)
				if j > 0 {
					b.WriteByte(';')
				}
			}
			totals[b.String()] += s.Values[vi]
		}
	}
	for _, k := range slices.Sorted(maps.Keys(totals)) {
		if totals[k] == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", k, totals[k]); err != nil {
			return err
		}
	}
	return nil
}
