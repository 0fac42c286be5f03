package synth

import (
	"slices"
	"testing"

	"kbrepair/internal/conflict"
	"kbrepair/internal/homo"
	"kbrepair/internal/inquiry"
	"kbrepair/internal/store"
)

func TestGenerateDefaults(t *testing.T) {
	g, err := Generate(Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.KB.Facts.Len() != 200 {
		t.Errorf("facts = %d, want 200", g.KB.Facts.Len())
	}
	if g.Info.NumCDDs != 10 {
		t.Errorf("cdds = %d", g.Info.NumCDDs)
	}
	if g.Info.NaiveConflicts == 0 {
		t.Error("no conflicts planted")
	}
	if g.Info.InconsistencyRatio < 0.05 {
		t.Errorf("inconsistency ratio %.3f too low", g.Info.InconsistencyRatio)
	}
	if err := g.KB.Validate(); err != nil {
		t.Errorf("generated KB invalid: %v", err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Params{Seed: 42, NumFacts: 120, InconsistencyRatio: 0.2}
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if !a.KB.Facts.Equal(b.KB.Facts) {
		t.Error("same seed produced different facts")
	}
	if a.Info != b.Info {
		t.Errorf("same seed produced different info: %+v vs %+v", a.Info, b.Info)
	}
	c, err := Generate(Params{Seed: 43, NumFacts: 120, InconsistencyRatio: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if a.KB.Facts.Equal(c.KB.Facts) {
		t.Error("different seeds produced identical facts")
	}
}

func TestGenerateHitsInconsistencyRatio(t *testing.T) {
	for _, ratio := range []float64{0.05, 0.15, 0.3} {
		g, err := Generate(Params{Seed: 7, NumFacts: 300, InconsistencyRatio: ratio})
		if err != nil {
			t.Fatalf("ratio %.2f: %v", ratio, err)
		}
		got := g.Info.InconsistencyRatio
		if got < ratio*0.8 || got > ratio*1.8+0.05 {
			t.Errorf("ratio %.2f: generated %.3f", ratio, got)
		}
	}
}

func TestGeneratePaddingIsConflictFree(t *testing.T) {
	g, err := Generate(Params{Seed: 3, NumFacts: 150, InconsistencyRatio: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// Every atom with a "pad" constant must be absent from all conflicts.
	cs := conflict.AllNaive(g.KB.Facts, g.KB.Rules)
	padFacts := make(map[int]bool)
	for _, id := range g.KB.Facts.IDs() {
		a := g.KB.Facts.FactRef(id)
		for _, arg := range a.Args {
			if len(arg.Name) > 3 && arg.Name[:3] == "pad" {
				padFacts[int(id)] = true
			}
		}
	}
	if len(padFacts) == 0 {
		t.Fatal("no padding generated")
	}
	for _, c := range cs {
		for _, f := range c.BaseFacts {
			if padFacts[int(f)] {
				t.Errorf("padding fact %d in conflict", f)
			}
		}
	}
}

func TestGenerateWithTGDs(t *testing.T) {
	g, err := Generate(Params{
		Seed: 11, NumFacts: 150, InconsistencyRatio: 0.2,
		NumCDDs: 8, NumTGDs: 10, Depth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.Info.NumTGDs != 10 {
		t.Errorf("tgds = %d", g.Info.NumTGDs)
	}
	// Chase must derive something (the chains fire).
	if g.Info.ChaseSize <= g.Info.Facts {
		t.Errorf("chase derived nothing: %d <= %d", g.Info.ChaseSize, g.Info.Facts)
	}
	// Some conflicts only appear after the chase.
	if g.Info.TotalConflicts <= g.Info.NaiveConflicts {
		t.Errorf("no chase-only conflicts: total=%d naive=%d",
			g.Info.TotalConflicts, g.Info.NaiveConflicts)
	}
}

// TestGenerateBindsBodyPlansToBaseFacts checks that the CDD body plans of a
// generated KB's rule set are bound against its base facts, not against the
// chased store of the indicator scan: they enumerate the base facts exactly
// as a fresh compile against kb.Facts does.
func TestGenerateBindsBodyPlansToBaseFacts(t *testing.T) {
	for _, p := range []Params{
		{Seed: 11, NumFacts: 150, InconsistencyRatio: 0.2, NumCDDs: 8, NumTGDs: 10, Depth: 2},
		{Seed: 3, NumFacts: 800, InconsistencyRatio: 0.3, NumCDDs: 50, NumTGDs: 25, Depth: 3},
	} {
		g, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		kb := g.KB
		matches := func(pl *homo.Plan) [][]store.FactID {
			var out [][]store.FactID
			pl.ForEach(kb.Facts, func(m homo.Match) bool {
				out = append(out, slices.Clone(m.Facts))
				return true
			})
			return out
		}
		for i, c := range kb.CDDs {
			kept := kb.Rules.CDD[i].Body
			fresh := homo.CompileWith(c.Body, homo.CompileOpts{Stats: kb.Facts})
			if kept.Mode() != fresh.Mode() {
				t.Fatalf("seed %d cdd %d: KB plan mode %v, base-bound mode %v", p.Seed, i, kept.Mode(), fresh.Mode())
			}
			if got, want := matches(kept), matches(fresh); !slices.EqualFunc(got, want, slices.Equal) {
				t.Fatalf("seed %d cdd %d %v: KB plan enumerates the base facts' %d matches unlike a base-bound plan",
					p.Seed, i, c, len(want))
			}
		}
	}
}

func TestGenerateDepthChainLength(t *testing.T) {
	// With Depth=3 and enough TGD budget, some conflicts need 3 chase
	// steps: verify the deepest chain exists by checking rule labels.
	g, err := Generate(Params{
		Seed: 5, NumFacts: 100, InconsistencyRatio: 0.3,
		NumCDDs: 5, NumTGDs: 9, Depth: 3, ChaseConflictFraction: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	chainRules := 0
	for _, tg := range g.KB.TGDs {
		if len(tg.Label) >= 5 && tg.Label[:5] == "chain" {
			chainRules++
		}
	}
	if chainRules != 9 {
		t.Errorf("chain rules = %d, want 9 (3 chains × depth 3)", chainRules)
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []Params{
		{Seed: 1, InconsistencyRatio: 1.5},
		{Seed: 1, CDDAtomsMin: 5, CDDAtomsMax: 2},
		{Seed: 1, ArityMin: 4, ArityMax: 2},
		{Seed: 1, NumTGDs: 2, Depth: 5},
	}
	for i, p := range bad {
		if _, err := Generate(p); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

// TestGeneratedKBIsRepairable runs a full inquiry on a generated KB: the
// end-to-end integration of generator + engine.
func TestGeneratedKBIsRepairable(t *testing.T) {
	g, err := Generate(Params{
		Seed: 21, NumFacts: 60, InconsistencyRatio: 0.2,
		NumCDDs: 5, NumTGDs: 4, Depth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := inquiry.New(g.KB, inquiry.OptiMCD{}, inquiry.NewSimulatedUser(21), 21, inquiry.Options{})
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Error("inquiry left generated KB inconsistent")
	}
	if res.Questions == 0 {
		t.Error("no questions asked")
	}
}

func TestJoinPositionPct(t *testing.T) {
	g, err := Generate(Params{Seed: 2, JoinVarRatio: 0.8, NumFacts: 50, InconsistencyRatio: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if g.Info.JoinPositionPct <= 0 || g.Info.JoinPositionPct > 1 {
		t.Errorf("join pct = %f", g.Info.JoinPositionPct)
	}
	low, err := Generate(Params{Seed: 2, JoinVarRatio: 0.01, NumFacts: 50, InconsistencyRatio: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if low.Info.JoinPositionPct > g.Info.JoinPositionPct {
		t.Errorf("join ratio param had no effect: %f vs %f",
			low.Info.JoinPositionPct, g.Info.JoinPositionPct)
	}
}
