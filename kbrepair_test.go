package kbrepair

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const medicalKB = `
prescribed(Aspirin, John).
hasAllergy(John, Aspirin).
hasAllergy(Mike, Penicillin).
hasPain(John, Migraine).
isPainKillerFor(Nsaids, Migraine).
incompatible(Aspirin, Nsaids).

[tgd] isPainKillerFor(X, Y), hasPain(Z, Y) -> prescribed(X, Z).
[cdd] prescribed(X, Y), hasAllergy(Y, X) -> !.
[cdd] prescribed(X, Z), prescribed(Y, Z), incompatible(X, Y) -> !.
`

func TestParseAndRepairEndToEnd(t *testing.T) {
	kb, err := ParseKB(medicalKB)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := kb.IsConsistent()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("running-example KB should be inconsistent")
	}
	conflicts, _, err := AllConflicts(kb)
	if err != nil {
		t.Fatal(err)
	}
	if len(conflicts) != 2 {
		t.Fatalf("conflicts = %d, want 2 (Example 2.4)", len(conflicts))
	}
	engine := NewEngine(kb, OptiMCD(), NewSimulatedUser(1), 1, EngineOptions{})
	res, err := engine.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Error("engine left KB inconsistent")
	}
	if res.Questions == 0 {
		t.Error("no questions asked")
	}
}

func TestFacadeConstructors(t *testing.T) {
	if !Const("a").IsConst() || !Var("X").IsVar() || !NullTerm("n").IsNull() {
		t.Error("term constructors wrong")
	}
	atom := NewAtom("p", Const("a"), Var("X"))
	if atom.Arity() != 2 {
		t.Error("atom arity")
	}
	tgd, err := NewTGD([]Atom{NewAtom("p", Var("X"))}, []Atom{NewAtom("q", Var("X"))})
	if err != nil {
		t.Fatal(err)
	}
	if !IsWeaklyAcyclic([]*TGD{tgd}) {
		t.Error("acyclic TGD flagged")
	}
	cdd, err := NewCDD([]Atom{NewAtom("p", Var("X"), Var("X"))})
	if err != nil {
		t.Fatal(err)
	}
	st, err := StoreFromAtoms([]Atom{NewAtom("p", Const("a"), Const("a"))})
	if err != nil {
		t.Fatal(err)
	}
	kb, err := NewKB(st, []*TGD{tgd}, []*CDD{cdd})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := kb.IsConsistent(); ok {
		t.Error("p(a,a) should violate the CDD")
	}
}

func TestFixRoundTripViaFacade(t *testing.T) {
	kb, err := ParseKB(`p(a, b). q(b, c). [cdd] p(X, Y), q(Y, Z) -> !.`)
	if err != nil {
		t.Fatal(err)
	}
	fs := FixSet{{Pos: Position{Fact: 0, Arg: 1}, Value: Const("z")}}
	updated, err := Apply(kb.Facts, fs)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := Diff(kb.Facts, updated)
	if err != nil {
		t.Fatal(err)
	}
	if len(diff) != 1 || diff[0] != fs[0] {
		t.Errorf("diff = %v", diff)
	}
	if ok, _ := IsCFix(kb, fs); !ok {
		t.Error("fix should be a c-fix")
	}
	if ok, _ := IsRFix(kb, fs); !ok {
		t.Error("fix should be an r-fix")
	}
	if ok, _ := PiRepairable(kb, NewPi(Position{Fact: 0, Arg: 1}, Position{Fact: 1, Arg: 0})); ok {
		t.Error("pinned join should be unrepairable")
	}
}

func TestSaveLoadKB(t *testing.T) {
	kb, err := ParseKB(medicalKB)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "medical.kb")
	if err := SaveKB(kb, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadKB(path)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Facts.EqualAsSet(kb.Facts) {
		t.Error("round trip changed facts")
	}
	if len(loaded.TGDs) != 1 || len(loaded.CDDs) != 2 {
		t.Error("round trip changed rules")
	}
	if _, err := LoadKB(filepath.Join(dir, "missing.kb")); err == nil {
		t.Error("missing file loaded")
	}
	if err := os.WriteFile(path, []byte("p(a"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadKB(path); err == nil || !strings.Contains(err.Error(), "medical.kb") {
		t.Errorf("parse error not annotated with path: %v", err)
	}
}

func TestOracleViaFacade(t *testing.T) {
	kb, err := ParseKB(`
prescribed(Aspirin, John).
hasAllergy(John, Aspirin).
[cdd] prescribed(X, Y), hasAllergy(Y, X) -> !.`)
	if err != nil {
		t.Fatal(err)
	}
	target := kb.Facts.Clone()
	target.MustSetValue(Position{Fact: 1, Arg: 1}, target.NullForPos(Position{Fact: 1, Arg: 1}))
	engine := NewEngine(kb, RandomStrategy(), NewOracle(target, 1), 1, EngineOptions{})
	res, err := engine.RunBasic()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent || !kb.Facts.EqualUpToNullRenaming(target) {
		t.Error("oracle inquiry did not reproduce the target repair")
	}
}

func TestGenerateSyntheticAndDurumViaFacade(t *testing.T) {
	kb, info, err := GenerateSynthetic(SynthParams{Seed: 1, NumFacts: 60, InconsistencyRatio: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if info.Facts != 60 || kb.Facts.Len() != 60 {
		t.Errorf("synthetic info = %+v", info)
	}
	if _, _, err := BuildDurumWheat(1); err != nil {
		t.Errorf("durum v1: %v", err)
	}
	if _, _, err := BuildDurumWheat(7); err == nil {
		t.Error("bad durum version accepted")
	}
	described, err := DescribeKB(kb)
	if err != nil {
		t.Fatal(err)
	}
	if described.Facts != info.Facts {
		t.Error("DescribeKB disagrees with generator info")
	}
}

func TestStrategyByNameFacade(t *testing.T) {
	for _, n := range []string{"random", "opti-join", "opti-prop", "opti-mcd"} {
		s, err := StrategyByName(n)
		if err != nil || s.Name() != n {
			t.Errorf("%s: %v", n, err)
		}
	}
	if _, err := StrategyByName("bogus"); err == nil {
		t.Error("bogus strategy accepted")
	}
}

func TestFormatKBIsParseable(t *testing.T) {
	kb, err := ParseKB(medicalKB)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseKB(FormatKB(kb))
	if err != nil {
		t.Fatalf("FormatKB output unparseable: %v", err)
	}
	if !again.Facts.EqualAsSet(kb.Facts) {
		t.Error("format/parse changed facts")
	}
}

// TestFullPipeline drives the complete product flow end-to-end: generate a
// synthetic KB, persist it, reload it, diagnose it, repair it with a
// recorded session, replay the session, and verify both repairs agree.
func TestFullPipeline(t *testing.T) {
	dir := t.TempDir()

	// Generate and persist.
	kb, info, err := GenerateSynthetic(SynthParams{
		Seed: 77, NumFacts: 120, InconsistencyRatio: 0.2, NumCDDs: 8, NumTGDs: 4, Depth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.TotalConflicts == 0 {
		t.Fatal("generator produced a consistent KB")
	}
	path := filepath.Join(dir, "generated.kb")
	if err := SaveKB(kb, path); err != nil {
		t.Fatal(err)
	}

	// Reload and diagnose.
	loaded, err := LoadKB(path)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := loaded.IsConsistent(); ok {
		t.Fatal("reloaded KB lost its inconsistency")
	}
	reloadedInfo, err := DescribeKB(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if reloadedInfo.TotalConflicts != info.TotalConflicts {
		t.Errorf("conflicts changed across save/load: %d vs %d",
			reloadedInfo.TotalConflicts, info.TotalConflicts)
	}

	// Repair with a recorded session.
	rec := NewRecordingUser(NewSimulatedUser(7), "opti-mcd")
	engine := NewEngine(loaded, OptiMCD(), rec, 7, EngineOptions{})
	res, err := engine.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Fatal("repair failed")
	}
	journalPath := filepath.Join(dir, "session.json")
	if err := SaveJournal(rec.Journal(), journalPath); err != nil {
		t.Fatal(err)
	}

	// Replay on a fresh load: identical repair up to null labels.
	again, err := LoadKB(path)
	if err != nil {
		t.Fatal(err)
	}
	j, err := LoadJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	engine2 := NewEngine(again, OptiMCD(), NewReplayUser(j), 7, EngineOptions{})
	res2, err := engine2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Consistent || res2.Questions != res.Questions {
		t.Fatalf("replay diverged: consistent=%v questions=%d vs %d",
			res2.Consistent, res2.Questions, res.Questions)
	}
	if !again.Facts.EqualUpToNullRenaming(loaded.Facts) {
		t.Error("replayed repair differs from the recorded one")
	}

	// The repaired KB round-trips and stays consistent.
	fixedPath := filepath.Join(dir, "fixed.kb")
	if err := SaveKB(loaded, fixedPath); err != nil {
		t.Fatal(err)
	}
	final, err := LoadKB(fixedPath)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := final.IsConsistent(); !ok {
		t.Error("persisted repair inconsistent")
	}
}
