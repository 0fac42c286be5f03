package inquiry

import (
	"testing"

	"kbrepair/internal/conflict"
	"kbrepair/internal/core"
	"kbrepair/internal/synth"
)

// TestOptiMCDOffersPositionInItsConflict: every opti-mcd question offers
// fixes only on facts of the conflict it names — in phase one and in
// phase two, on KBs with many tied maximum-degree positions.
func TestOptiMCDOffersPositionInItsConflict(t *testing.T) {
	for _, p := range []synth.Params{
		goldenKBs[0].params,
		{Seed: 1, NumFacts: 600, InconsistencyRatio: 0.4, NumCDDs: 20},
	} {
		for _, seed := range []int64{3, 17} {
			g, err := synth.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			sim := NewSimulatedUser(seed)
			var asked, outside int
			user := FuncUser(func(kb *core.KB, q Question) (core.Fix, error) {
				asked++
				for _, f := range q.Fixes {
					if !q.Conflict.InvolvesFact(f.Pos.Fact) {
						outside++
						break
					}
				}
				return sim.Choose(kb, q)
			})
			res, err := New(g.KB, OptiMCD{}, user, seed, Options{}).Run()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Consistent || asked == 0 {
				t.Fatalf("KB seed %d, seed %d: consistent=%v after %d questions", p.Seed, seed, res.Consistent, asked)
			}
			if outside > 0 {
				t.Errorf("KB seed %d, seed %d: %d of %d questions offer a position outside the conflict they name",
					p.Seed, seed, outside, asked)
			}
		}
	}
}

// TestPhaseOneRankingAllocatesNothing guards the tracker-kept degrees: a
// question's phase-one ranking reads the tracker's maintained table and
// reuses the tie buffer, so after the table is built it allocates nothing.
func TestPhaseOneRankingAllocatesNothing(t *testing.T) {
	g, err := synth.Generate(synth.Params{Seed: 1, NumFacts: 600, InconsistencyRatio: 0.4, NumCDDs: 20})
	if err != nil {
		t.Fatal(err)
	}
	e := New(g.KB, OptiMCD{}, NewSimulatedUser(1), 1, Options{})
	tr := conflict.NewTracker(g.KB.Facts, g.KB.Rules)
	cs := tr.Conflicts()
	e.beginQuestion(tr)
	if len(e.bestRankedPositions(cs)) == 0 {
		t.Fatal("no ranked position")
	}
	allocs := testing.AllocsPerRun(50, func() {
		e.beginQuestion(tr)
		e.mcdPosition(cs)
	})
	if allocs != 0 {
		t.Fatalf("phase-one ranking allocates %.1f times per question, want 0", allocs)
	}
}
