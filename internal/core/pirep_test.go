package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"kbrepair/internal/logic"
	"kbrepair/internal/store"
)

// example37 builds the KB of Example 3.7: F = {p(a,b), q(b,d)},
// ΣC = {p(X,Y), q(Y,Z) → ⊥}, empty ΣT.
func example37(t testing.TB) *KB {
	t.Helper()
	s := store.MustFromAtoms([]logic.Atom{
		logic.NewAtom("p", logic.C("a"), logic.C("b")),
		logic.NewAtom("q", logic.C("b"), logic.C("d")),
	})
	cdd := logic.MustCDD([]logic.Atom{
		logic.NewAtom("p", logic.V("X"), logic.V("Y")),
		logic.NewAtom("q", logic.V("Y"), logic.V("Z")),
	})
	return MustKB(s, nil, []*logic.CDD{cdd})
}

func TestPiRepairableExample37(t *testing.T) {
	kb := example37(t)
	// Π = ∅ → repairable.
	ok, err := PiRepairable(kb, NewPi())
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("Π=∅ should always be repairable")
	}
	// Π = {(p(a,b),2), (q(b,d),1)} → NOT repairable (join pinned on b).
	pi := NewPi(
		Position{Fact: 0, Arg: 1},
		Position{Fact: 1, Arg: 0},
	)
	ok, err = PiRepairable(kb, pi)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("pinned join should make KB not Π-repairable")
	}
	// Pinning only one side keeps it repairable.
	ok, err = PiRepairable(kb, NewPi(Position{Fact: 0, Arg: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("one-sided pin wrongly unrepairable")
	}
	// Naive and optimized agree.
	for _, testPi := range []Pi{NewPi(), pi, NewPi(Position{Fact: 0, Arg: 1})} {
		o1, _ := PiRepairable(kb, testPi)
		o2, _ := PiRepairableNaive(kb, testPi)
		if o1 != o2 {
			t.Errorf("opt/naive disagree on Π=%v: %v vs %v", testPi, o1, o2)
		}
	}
}

func TestPiRepairabilityFullPiIsConsistencyCheck(t *testing.T) {
	kb := example37(t)
	// Π = pos(F) on an inconsistent KB → not Π-repairable.
	pi := NewPi(kb.Facts.Positions()...)
	ok, err := PiRepairable(kb, pi)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("full Π on inconsistent KB reported repairable")
	}
	// Repair, then full Π must be repairable (= consistent).
	kb.Facts.MustSetValue(Position{Fact: 0, Arg: 1}, logic.C("z"))
	ok, err = PiRepairable(kb, NewPi(kb.Facts.Positions()...))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("full Π on consistent KB reported unrepairable")
	}
}

func TestPiRepairableWithTGDInteraction(t *testing.T) {
	// p(a) with TGD p(X) → q(X) and CDD q(X), r(X) → ⊥, plus r(a).
	// Pinning both p(a)@1 and r(a)@1 makes the KB not Π-repairable: the TGD
	// regenerates q(a) no matter what.
	s := store.MustFromAtoms([]logic.Atom{
		logic.NewAtom("p", logic.C("a")),
		logic.NewAtom("r", logic.C("a")),
	})
	kb := MustKB(s,
		[]*logic.TGD{logic.MustTGD(
			[]logic.Atom{logic.NewAtom("p", logic.V("X"))},
			[]logic.Atom{logic.NewAtom("q", logic.V("X"))},
		)},
		[]*logic.CDD{logic.MustCDD([]logic.Atom{
			logic.NewAtom("q", logic.V("X")),
			logic.NewAtom("r", logic.V("X")),
		})},
	)
	pi := NewPi(Position{Fact: 0, Arg: 0}, Position{Fact: 1, Arg: 0})
	ok, err := PiRepairable(kb, pi)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("TGD-propagated pin reported repairable")
	}
	// Unpinning the r fact restores repairability.
	ok, err = PiRepairable(kb, NewPi(Position{Fact: 0, Arg: 0}))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("partial pin reported unrepairable")
	}
}

func TestPiHelpers(t *testing.T) {
	p1 := Position{Fact: 0, Arg: 0}
	p2 := Position{Fact: 1, Arg: 1}
	pi := NewPi(p1)
	if !pi.Has(p1) || pi.Has(p2) {
		t.Error("Has wrong")
	}
	pi2 := pi.With(p2)
	if !pi2.Has(p2) || pi.Has(p2) {
		t.Error("With not copy-on-write")
	}
	c := pi.Clone()
	c.Add(p2)
	if pi.Has(p2) {
		t.Error("Clone shares storage")
	}
}

func TestPiCheckerFastPathNull(t *testing.T) {
	kb := example37(t)
	pc := NewPiChecker(kb)
	p := Position{Fact: 0, Arg: 1}
	f := Fix{Pos: p, Value: kb.Facts.NullForPos(p)}
	ok, err := pc.CheckWithFix(NewPi(), f)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("fresh null fix rejected")
	}
	if pc.FastHits != 1 || pc.FullChecks != 0 {
		t.Errorf("fast=%d full=%d, want 1/0", pc.FastHits, pc.FullChecks)
	}
	// A null already in the store is NOT fast-safe.
	kb.Facts.MustAdd(logic.NewAtom("p", logic.N("used"), logic.C("k")))
	f2 := Fix{Pos: Position{Fact: 0, Arg: 1}, Value: logic.N("used")}
	_, err = pc.CheckWithFix(NewPi(), f2)
	if err != nil {
		t.Fatal(err)
	}
	if pc.FullChecks != 1 {
		t.Error("reused null took the fast path")
	}
}

func TestPiCheckerFastPathConstant(t *testing.T) {
	kb := example37(t)
	pc := NewPiChecker(kb)
	// A constant that appears nowhere in Π values nor in the rules is safe.
	f := Fix{Pos: Position{Fact: 0, Arg: 1}, Value: logic.C("unicorn")}
	ok, err := pc.CheckWithFix(NewPi(), f)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || pc.FastHits != 1 {
		t.Errorf("unused constant not fast-accepted (ok=%v fast=%d)", ok, pc.FastHits)
	}
	// The same constant sitting at a Π position forces a full check, and
	// here it creates the join p(·,unicorn), q(unicorn,·): unrepairable.
	kb.Facts.MustSetValue(Position{Fact: 1, Arg: 0}, logic.C("unicorn"))
	pi := NewPi(Position{Fact: 1, Arg: 0})
	ok, err = pc.CheckWithFix(pi, f)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("joining constant accepted")
	}
	if pc.FullChecks == 0 {
		t.Error("joining constant took the fast path")
	}
}

func TestPiCheckerConstantInRulesForcesFullCheck(t *testing.T) {
	// CDD mentions constant "bad": fixing any position to "bad" cannot take
	// the fast path.
	s := store.MustFromAtoms([]logic.Atom{
		logic.NewAtom("p", logic.C("x")),
	})
	kb := MustKB(s, nil, []*logic.CDD{logic.MustCDD([]logic.Atom{
		logic.NewAtom("p", logic.C("bad")),
	})})
	pc := NewPiChecker(kb)
	f := Fix{Pos: Position{Fact: 0, Arg: 0}, Value: logic.C("bad")}
	ok, err := pc.CheckWithFix(NewPi(), f)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("rule-constant fix accepted although it violates the CDD")
	}
	if pc.FastHits != 0 {
		t.Error("rule constant took the fast path")
	}
}

// Property: the optimized Π-checker agrees with the ground-truth Algorithm 1
// on random single-fix checks over random small KBs.
func TestPiCheckerAgreesWithAlgorithm1(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		consts := []logic.Term{logic.C("a"), logic.C("b"), logic.C("c")}
		s := store.New()
		for i := 0; i < 6; i++ {
			s.MustAdd(logic.NewAtom("p", consts[r.Intn(3)], consts[r.Intn(3)]))
		}
		for i := 0; i < 3; i++ {
			s.MustAdd(logic.NewAtom("q", consts[r.Intn(3)]))
		}
		cdds := []*logic.CDD{
			logic.MustCDD([]logic.Atom{
				logic.NewAtom("p", logic.V("X"), logic.V("Y")),
				logic.NewAtom("q", logic.V("Y")),
			}),
			logic.MustCDD([]logic.Atom{logic.NewAtom("p", logic.V("X"), logic.V("X"))}),
		}
		var tgds []*logic.TGD
		if r.Intn(2) == 0 {
			tgds = append(tgds, logic.MustTGD(
				[]logic.Atom{logic.NewAtom("q", logic.V("X"))},
				[]logic.Atom{logic.NewAtom("p", logic.V("X"), logic.V("X"))},
			))
		}
		kb := MustKB(s, tgds, cdds)
		pc := NewPiChecker(kb)

		pi := NewPi()
		for i := 0; i < 3; i++ {
			ps := kb.Facts.Positions()
			pi.Add(ps[r.Intn(len(ps))])
		}
		ps := kb.Facts.Positions()
		pos := ps[r.Intn(len(ps))]
		var v logic.Term
		switch r.Intn(3) {
		case 0:
			v = kb.Facts.NullForPos(pos)
		case 1:
			v = consts[r.Intn(3)]
		default:
			v = logic.C("zz")
		}
		fx := Fix{Pos: pos, Value: v}

		// The fast path presumes the Algorithm 2 loop invariant that K is
		// Π-repairable; skip generated states where it does not hold.
		if ok, err := PiRepairable(kb, pi); err != nil || !ok {
			return err == nil
		}

		got, err := pc.CheckWithFix(pi, fx)
		if err != nil {
			return false
		}
		// Ground truth: apply the fix, run Algorithm 1 with Π ∪ {pos}.
		kb2 := kb.Clone()
		kb2.Facts.MustSetValue(pos, v)
		want, err := PiRepairable(kb2, pi.With(pos))
		if err != nil {
			return false
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestNulledCopyLabelCollision is a regression test: the Algorithm 1
// instance must never name a fresh null whose label collides with a null
// already sitting at a Π position (or handed out as a candidate fix value)
// — a collision fabricates joins and flips the answer. The pinned null is
// either an arbitrary label or the natural label of the very position the
// join would need (q's first argument, #1@0).
func TestNulledCopyLabelCollision(t *testing.T) {
	for _, label := range []string{"n1", "f1a0"} {
		s := store.MustFromAtoms([]logic.Atom{
			logic.NewAtom("p", logic.C("a"), logic.N(label)),
			logic.NewAtom("q", logic.C("c"), logic.C("d")),
		})
		cdd := logic.MustCDD([]logic.Atom{
			logic.NewAtom("p", logic.V("X"), logic.V("Y")),
			logic.NewAtom("q", logic.V("Y"), logic.V("Z")),
		})
		kb := MustKB(s, nil, []*logic.CDD{cdd})
		// Pin the null's position: with a colliding fresh null at q's first
		// argument the CDD body would spuriously match.
		pi := NewPi(Position{Fact: 0, Arg: 1})
		ok, err := PiRepairable(kb, pi)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("%s: label collision fabricated a join: Π-repairable KB reported unrepairable", label)
		}
		// Same through the checker's full-check path, both for a constant
		// and for the fresh null offered at q's first argument.
		pc := NewPiChecker(kb)
		pc.Optimized = false
		q0 := Position{Fact: 1, Arg: 0}
		for _, v := range []logic.Term{logic.C("x"), kb.Facts.NullForPos(q0)} {
			got, err := pc.CheckWithFix(pi, Fix{Pos: q0, Value: v})
			if err != nil {
				t.Fatal(err)
			}
			if !got {
				t.Errorf("%s: full check of fix value %v fabricated a join under pinned null", label, v)
			}
		}
	}
}

// TestCheckBatchRejectsOutOfRangeBeforeFastPath: every fix position is
// range-checked before the fast path, so a fresh null or an unused
// constant — values the fast path would accept unseen — at a position
// outside pos(F) is an error, not a verdict.
func TestCheckBatchRejectsOutOfRangeBeforeFastPath(t *testing.T) {
	kb := example37(t)
	pc := NewPiChecker(kb)
	for _, p := range []Position{{Fact: 0, Arg: 2}, {Fact: 0, Arg: -1}, {Fact: 7, Arg: 0}, {Fact: -1, Arg: 0}} {
		for _, v := range []logic.Term{kb.Facts.NullForPos(p), logic.C("unicorn")} {
			ok, err := pc.CheckWithFix(NewPi(), Fix{Pos: p, Value: v})
			if err == nil {
				t.Errorf("fix %v at out-of-range %s: verdict %v, want an error", v, p, ok)
			}
		}
	}
	if pc.FastHits != 0 || pc.FullChecks != 0 {
		t.Errorf("rejected batches counted fast=%d full=%d, want 0/0", pc.FastHits, pc.FullChecks)
	}
	// A batch with one bad fix is rejected whole.
	good := Fix{Pos: Position{Fact: 0, Arg: 1}, Value: logic.C("unicorn")}
	bad := Fix{Pos: Position{Fact: 1, Arg: 5}, Value: logic.C("unicorn")}
	if _, err := pc.CheckBatch(NewPi(), []Fix{good, bad}); err == nil {
		t.Error("batch with an out-of-range fix accepted")
	}
}

// TestFixLocalVerdictAgreesWithAlgorithm1: on random CDD-only KBs, where a
// continuation is local to the fixed fact, one checker per KB decides
// several batches under random Π — not filtered for Π-repairability, since
// opti-prop pins positions unverified, and redrawn per batch so the
// instance sync and its violated flag go both ways between violated and
// clean, also by pinned searches after a clean batch. Every fix the fast
// path leaves to a full check gets a verdict equal to Algorithm 1 on the
// fixed copy, so both the rejection by a violated instance and the pinned
// search at the fixed fact are exercised; one batch in four runs
// unoptimized in between.
func TestFixLocalVerdictAgreesWithAlgorithm1(t *testing.T) {
	consts := []logic.Term{logic.C("a"), logic.C("b"), logic.C("c")}
	cdds := []*logic.CDD{
		logic.MustCDD([]logic.Atom{
			logic.NewAtom("p", logic.V("X"), logic.V("Y")),
			logic.NewAtom("q", logic.V("Y")),
		}),
		logic.MustCDD([]logic.Atom{logic.NewAtom("p", logic.V("X"), logic.V("X"))}),
		logic.MustCDD([]logic.Atom{
			logic.NewAtom("p", logic.V("X"), logic.V("Y")),
			logic.NewAtom("r", logic.V("Y"), logic.V("Z")),
			logic.NewAtom("q", logic.V("Z")),
		}),
		logic.MustCDD([]logic.Atom{logic.NewAtom("r", logic.C("c"), logic.V("X"))}),
	}
	var violated, clean, decided int
	for seed := int64(1); seed <= 150; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := store.New()
		for i := 0; i < 8; i++ {
			switch r.Intn(3) {
			case 0:
				s.MustAdd(logic.NewAtom("p", consts[r.Intn(3)], consts[r.Intn(3)]))
			case 1:
				s.MustAdd(logic.NewAtom("q", consts[r.Intn(3)]))
			default:
				s.MustAdd(logic.NewAtom("r", consts[r.Intn(3)], consts[r.Intn(3)]))
			}
		}
		kb := MustKB(s, nil, cdds)
		pc := NewPiChecker(kb)
		ps := kb.Facts.Positions()
		for batch := 0; batch < 4; batch++ {
			// Batch 2 runs with the fast path off (full in-place checks
			// that sync the instance and drop its saturation).
			pc.Optimized = batch != 2
			pi := NewPi()
			for i := 0; i < 1+r.Intn(6); i++ {
				pi.Add(ps[r.Intn(len(ps))])
			}
			if ok, _ := PiRepairable(kb, pi); ok {
				clean++
			} else {
				violated++
			}
			var fixes []Fix
			for i := 0; i < 12; i++ {
				p := ps[r.Intn(len(ps))]
				if pi.Has(p) {
					continue
				}
				f := Fix{Pos: p, Value: consts[r.Intn(3)]}
				if f.Value != kb.Facts.Value(p) && !pc.fastSafe(pi, piValues(kb.Facts, pi), f) {
					fixes = append(fixes, f)
				}
			}
			got, err := pc.CheckBatch(pi, fixes)
			if err != nil {
				t.Fatal(err)
			}
			if pc.FastHits != 0 {
				t.Fatalf("seed %d: %d fixes took the fast path", seed, pc.FastHits)
			}
			for i, f := range fixes {
				k2 := kb.Clone()
				k2.Facts.MustSetValue(f.Pos, f.Value)
				want, err := PiRepairable(k2, pi.With(f.Pos))
				if err != nil {
					t.Fatal(err)
				}
				if got[i] != want {
					t.Fatalf("seed %d batch %d: fix %s=%v under Π=%v: verdict %v, Algorithm 1 %v\n%s",
						seed, batch, f.Pos, f.Value, pi, got[i], want, kb.Facts)
				}
				decided++
			}
		}
	}
	if violated == 0 || clean == 0 || decided == 0 {
		t.Fatalf("table too weak: %d violated and %d clean instances, %d verdicts", violated, clean, decided)
	}
}
