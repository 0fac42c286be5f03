package core_test

import (
	"slices"
	"testing"

	"kbrepair/internal/core"
	"kbrepair/internal/parser"
	"kbrepair/internal/synth"
)

// TestRulesCompatibleKeepsConflictOrder: the compatibility check chases the
// rules over a one-fact-per-predicate anonymized store, with a rule set
// compiled for that store alone, so it leaves the plans of the KB bound
// against its base facts. A KB that ran the check (as kbcheck does first)
// lists its conflicts in the order, and under the keys, of a fresh KB
// parsed from the same text.
func TestRulesCompatibleKeepsConflictOrder(t *testing.T) {
	g, err := synth.Generate(synth.Params{Seed: 3, NumFacts: 800, InconsistencyRatio: 0.25, NumCDDs: 50, NumTGDs: 25})
	if err != nil {
		t.Fatal(err)
	}
	text := parser.Serialize(&parser.Document{Facts: g.KB.Facts.Atoms(), TGDs: g.KB.TGDs, CDDs: g.KB.CDDs})
	parse := func() *core.KB {
		t.Helper()
		doc, err := parser.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		st, err := doc.Store()
		if err != nil {
			t.Fatal(err)
		}
		kb, err := core.NewKB(st, doc.TGDs, doc.CDDs)
		if err != nil {
			t.Fatal(err)
		}
		return kb
	}
	checked := parse()
	if ok, err := checked.RulesCompatible(); err != nil || !ok {
		t.Fatalf("RulesCompatible = %v, %v; want true, nil", ok, err)
	}
	got, _, err := checked.AllConflicts()
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := parse().AllConflicts()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d conflicts after RulesCompatible, %d on a fresh KB", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Key() != w.Key() || !slices.Equal(got[i].BaseFacts, w.BaseFacts) {
			t.Fatalf("conflict %d of %d after RulesCompatible = %s, fresh KB %s", i, len(want), got[i], w)
		}
	}
}
