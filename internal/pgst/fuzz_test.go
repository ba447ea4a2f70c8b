package pgst

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/par"
	"repro/internal/seq"
)

// fuzzStore draws a small store from seed: reads of 15–80 bases from
// both strands of a genome of 150–600 bases that carries a repeat, a
// few bases masked.
func fuzzStore(seed int64) *seq.Store {
	rng := rand.New(rand.NewSource(seed))
	g := make([]byte, 150+rng.Intn(451))
	for i := range g {
		g[i] = seq.Base(rng.Intn(4))
	}
	if l := 10 + rng.Intn(30); 2*l < len(g) {
		copy(g[len(g)-l:], g[rng.Intn(len(g)/2):])
	}
	frags := make([]*seq.Fragment, 3+rng.Intn(18))
	for i := range frags {
		l := 15 + rng.Intn(66)
		at := rng.Intn(len(g) - l + 1)
		b := append([]byte(nil), g[at:at+l]...)
		if rng.Intn(2) == 0 {
			b = seq.ReverseComplement(b)
		}
		for j := range b {
			if rng.Float64() < 0.01 {
				b[j] = seq.Masked
			}
		}
		frags[i] = &seq.Fragment{Name: fmt.Sprintf("r%d", i), Bases: b}
	}
	return seq.NewStore(frags)
}

// FuzzBuildMatchesSerial holds the resident distributed build to the
// serial tree: whatever the store, the rank count (2–6), the first
// owner (0 or 1), the batch bound (1 byte to 64 KiB: from a batch per
// bucket to one batch) and the exchange, the union of the ranks'
// forests has the serial tree's signature.
func FuzzBuildMatchesSerial(f *testing.F) {
	f.Add(int64(1), uint8(2), false, uint16(65535), false, uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, pb uint8, firstOwner bool, batch uint16, staged bool, wb uint8) {
		st := fuzzStore(seed)
		p := 2 + int(pb%5)
		w := 2 + int(wb%6)
		cfg := Config{W: w, MinLen: w + int(wb>>6), BatchBytes: 1 + int(batch), Staged: staged, Seed: seed}
		if firstOwner {
			cfg.FirstOwner = 1
		}
		want := TreeSignature(serialTree(st, cfg.W, cfg.MinLen))
		locals := make([]*Local, p)
		par.Run(par.DefaultConfig(p), func(c *par.Comm) {
			locals[c.Rank()] = Build(c, st, cfg)
		})
		if !UnionSignatureOf(st, locals).Equal(want) {
			t.Fatalf("p=%d %+v: the ranks' forests differ from the serial tree", p, cfg)
		}
		owned := 0
		for _, l := range locals {
			owned += l.SuffixesOwned
		}
		if owned != len(want.Suffixes) {
			t.Fatalf("p=%d %+v: the ranks own %d suffixes, the serial tree holds %d", p, cfg, owned, len(want.Suffixes))
		}
	})
}
