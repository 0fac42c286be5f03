package inquiry

import (
	"fmt"
	"testing"

	"kbrepair/internal/core"
	"kbrepair/internal/durum"
	"kbrepair/internal/synth"
)

// TestRescansMatchFreshScans is the differential check of phase-two
// conflict maintenance: after every phase-two answer of Run and every
// round of RunBasic, the re-scan that searched only the CDDs the answer
// can affect must equal a fresh scan of every CDD (checkRescans), on synth
// KBs with TGDs (the tgd-interactive shape scaled down, and chains of
// depth 2) and Durum Wheat v2, for every strategy at three seeds.
func TestRescansMatchFreshScans(t *testing.T) {
	dw, _, err := durum.Build(durum.V2)
	if err != nil {
		t.Fatal(err)
	}
	kbs := map[string]*core.KB{"durum v2": dw}
	for _, p := range []synth.Params{
		{Seed: 11, NumFacts: 240, InconsistencyRatio: 0.25, NumCDDs: 16, NumTGDs: 8},
		{Seed: 12, NumFacts: 200, InconsistencyRatio: 0.3, NumCDDs: 12, NumTGDs: 8, Depth: 2},
	} {
		g, err := synth.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		kbs[fmt.Sprintf("synth seed %d depth %d", p.Seed, p.Depth)] = g.KB
	}
	checked := 0
	for name, kb := range kbs {
		for _, seed := range []int64{1, 7, 13} {
			for _, strat := range []string{"random", "opti-mcd", "opti-prop", "opti-join", "adaptive", "basic"} {
				var s Strategy
				if strat != "basic" {
					s = goldenStrategy(t, strat)
				}
				e := New(kb.Clone(), s, NewSimulatedUser(seed), seed, Options{})
				n := checkRescans(t, e)
				run := e.Run
				if strat == "basic" {
					run = e.RunBasic
				}
				res, err := run()
				if err != nil {
					t.Fatalf("%s, %s, seed %d: %v", name, strat, seed, err)
				}
				if !res.Consistent {
					t.Fatalf("%s, %s, seed %d: repair did not converge", name, strat, seed)
				}
				checked += *n
			}
		}
	}
	if checked < 500 {
		t.Fatalf("only %d re-scans checked; the workloads no longer reach phase two", checked)
	}
	t.Logf("%d re-scans matched fresh scans", checked)
}
