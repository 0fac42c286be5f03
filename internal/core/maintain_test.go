package core

import (
	"errors"
	"testing"

	"kbrepair/internal/chase"
	"kbrepair/internal/logic"
	"kbrepair/internal/parser"
)

// parseKB builds a KB from the text format.
func parseKB(t *testing.T, src string) *KB {
	t.Helper()
	doc, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	s, err := doc.Store()
	if err != nil {
		t.Fatal(err)
	}
	return MustKB(s, doc.TGDs, doc.CDDs)
}

// checkAgainstAlgorithm1 runs one batch and requires every verdict to equal
// Algorithm 1 on a fresh copy with the fix applied and Π ∪ {f.Pos}.
func checkAgainstAlgorithm1(t *testing.T, pc *PiChecker, pi Pi, fixes []Fix) {
	t.Helper()
	got, err := pc.CheckBatch(pi, fixes)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range fixes {
		prev := pc.kb.Facts.MustSetValue(f.Pos, f.Value)
		want, err := PiRepairable(pc.kb, pi.With(f.Pos))
		pc.kb.Facts.MustSetValue(f.Pos, prev)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("fix %s = %v: verdict %v, Algorithm 1 says %v", f.Pos, f.Value, got[i], want)
		}
	}
}

// TestSaturationFallbackOnInventedLabel: the input holds the
// coordinate-shaped null _:n1r0t0x0 at u(·), outside Π, so the
// saturation of the nulled instance invents the same label for t(·, Z).
// When u's position enters Π, h = {f1a0 ↦ n1r0t0x0} would merge the two
// nulls and derive ⊥ from t(·, Z), u(Z), which Algorithm 1 does not: the
// checker must chase the instance from fact 0 instead, and its verdicts
// must match Algorithm 1's. The fix value k occurs in a rule, so each
// batch has a full check.
func TestSaturationFallbackOnInventedLabel(t *testing.T) {
	kb := parseKB(t, `
s(a).
u(_:n1r0t0x0).
[tgd] s(X) -> t(X, Z).
[cdd] t(X, Z), u(Z) -> !.
[cdd] r(k) -> !.
`)
	pc := NewPiChecker(kb)
	s0, u0 := Position{Fact: 0, Arg: 0}, Position{Fact: 1, Arg: 0}
	fixes := []Fix{{Pos: s0, Value: kb.Facts.Value(s0)}, {Pos: s0, Value: logic.C("k")}}
	checkAgainstAlgorithm1(t, pc, NewPi(), fixes[1:])
	if pc.scratch != 1 || !pc.in.s.OccursAnywhere(kb.Facts.Value(u0)) {
		t.Fatalf("first batch: %d saturations from fact 0, saturation:\n%s", pc.scratch, pc.in.s)
	}
	checkAgainstAlgorithm1(t, pc, NewPi(u0), fixes)
	if pc.scratch != 2 || pc.maintained != 0 {
		t.Fatalf("pinning u's position: %d saturations from fact 0 and %d kept, want 2 and 0", pc.scratch, pc.maintained)
	}
	// A plain pin keeps the saturation.
	checkAgainstAlgorithm1(t, pc, NewPi(u0, Position{Fact: 0, Arg: 0}), []Fix{{Pos: u0, Value: logic.C("k")}})
	if pc.scratch != 2 || pc.maintained != 1 {
		t.Fatalf("pinning s's position: %d saturations from fact 0 and %d kept, want 2 and 1", pc.scratch, pc.maintained)
	}
}

// TestSaturationBudgetExit: pinning p's and q's positions joins p(a) and
// q(a), and the continuation fires two rules, one more than the budget
// allows. The batch must fail with ErrBudget and leave the instance equal
// to nulledCopy(F, Π) with no saturation; with the budget restored, the
// next batch chases it from fact 0 and decides like Algorithm 1.
func TestSaturationBudgetExit(t *testing.T) {
	kb := parseKB(t, `
p(a).
q(a).
s(b).
w(c).
[tgd] p(X), q(X) -> t(X, Z).
[tgd] t(X, Z) -> m(Z).
[cdd] m(X), w(X) -> !.
[cdd] r(k) -> !.
`)
	pc := NewPiChecker(kb)
	fixes := []Fix{{Pos: Position{Fact: 2, Arg: 0}, Value: logic.C("k")}}
	checkAgainstAlgorithm1(t, pc, NewPi(), fixes)
	pi := NewPi(Position{Fact: 0, Arg: 0}, Position{Fact: 1, Arg: 0})
	kb.ChaseOpts = chase.Options{MaxDerived: 1}
	if _, err := pc.CheckBatch(pi, fixes); !errors.Is(err, chase.ErrBudget) {
		t.Fatalf("continuation under a one-derivation budget: err %v, want ErrBudget", err)
	}
	in := &pc.in
	if in.saturated || in.s.Len() != kb.Facts.Len() || !in.s.EqualUpToNullRenaming(nulledCopy(kb.Facts, pi)) {
		t.Fatalf("after ErrBudget: saturated %v, instance\n%s\nwant nulledCopy\n%s", in.saturated, in.s, nulledCopy(kb.Facts, pi))
	}
	if pc.scratch != 1 || pc.maintained != 1 {
		t.Fatalf("%d saturations from fact 0 and %d kept, want 1 and 1", pc.scratch, pc.maintained)
	}
	kb.ChaseOpts = chase.Options{}
	checkAgainstAlgorithm1(t, pc, pi, fixes)
	if pc.scratch != 2 || !in.saturated {
		t.Fatalf("after the budget is restored: %d saturations from fact 0, saturated %v", pc.scratch, in.saturated)
	}
}
