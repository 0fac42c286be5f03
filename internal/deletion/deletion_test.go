package deletion

import (
	"testing"

	"kbrepair/internal/core"
	"kbrepair/internal/inquiry"
	"kbrepair/internal/logic"
	"kbrepair/internal/store"
)

func fig1aKB(t testing.TB) *core.KB {
	t.Helper()
	s := store.MustFromAtoms([]logic.Atom{
		logic.NewAtom("prescribed", logic.C("Aspirin"), logic.C("John")),    // 0
		logic.NewAtom("hasAllergy", logic.C("John"), logic.C("Aspirin")),    // 1
		logic.NewAtom("hasAllergy", logic.C("Mike"), logic.C("Penicillin")), // 2
	})
	cdd := logic.MustCDD([]logic.Atom{
		logic.NewAtom("prescribed", logic.V("X"), logic.V("Y")),
		logic.NewAtom("hasAllergy", logic.V("Y"), logic.V("X")),
	})
	return core.MustKB(s, nil, []*logic.CDD{cdd})
}

func TestGreedyRepair(t *testing.T) {
	kb := fig1aKB(t)
	r, err := GreedyRepair(kb)
	if err != nil {
		t.Fatal(err)
	}
	// One removal suffices: either prescribed(Aspirin,John) or
	// hasAllergy(John,Aspirin) — the F1/F2 repairs of Example 1.2.
	if len(r.Removed) != 1 {
		t.Fatalf("removed %v, want exactly one fact", r.Removed)
	}
	if r.Removed[0] != 0 && r.Removed[0] != 1 {
		t.Errorf("removed fact %d not part of the conflict", r.Removed[0])
	}
	if r.Facts.Len() != 2 {
		t.Errorf("survivors = %d", r.Facts.Len())
	}
	// A whole binary atom is lost: 2 positions.
	if r.InformationLoss(kb.Facts) != 2 {
		t.Errorf("loss = %d", r.InformationLoss(kb.Facts))
	}
	// The surviving KB is consistent.
	sub := kb.WithFacts(r.Facts)
	if ok, _ := sub.IsConsistent(); !ok {
		t.Error("greedy repair left inconsistency")
	}
	// The input KB is untouched.
	if kb.Facts.Len() != 3 {
		t.Error("GreedyRepair mutated input")
	}
}

func TestGreedyRepairWithTGDs(t *testing.T) {
	// Chase-only conflict: deletion must remove a base fact feeding it.
	s := store.MustFromAtoms([]logic.Atom{
		logic.NewAtom("p", logic.C("a")),
		logic.NewAtom("r", logic.C("a")),
	})
	kb := core.MustKB(s,
		[]*logic.TGD{logic.MustTGD(
			[]logic.Atom{logic.NewAtom("p", logic.V("X"))},
			[]logic.Atom{logic.NewAtom("q", logic.V("X"))},
		)},
		[]*logic.CDD{logic.MustCDD([]logic.Atom{
			logic.NewAtom("q", logic.V("X")),
			logic.NewAtom("r", logic.V("X")),
		})},
	)
	r, err := GreedyRepair(kb)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Removed) != 1 {
		t.Fatalf("removed = %v", r.Removed)
	}
	sub := kb.WithFacts(r.Facts)
	if ok, _ := sub.IsConsistent(); !ok {
		t.Error("repair inconsistent under chase")
	}
}

func TestMinimalRepairsExample12(t *testing.T) {
	kb := fig1aKB(t)
	rs, err := MinimalRepairs(kb, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Example 1.2: exactly the two repairs F1 and F2.
	if len(rs) != 2 {
		t.Fatalf("repairs = %d, want 2", len(rs))
	}
	seen := map[store.FactID]bool{}
	for _, r := range rs {
		if len(r.Removed) != 1 {
			t.Errorf("non-minimal repair %v", r.Removed)
		}
		seen[r.Removed[0]] = true
		if !r.Facts.Contains(logic.NewAtom("hasAllergy", logic.C("Mike"), logic.C("Penicillin"))) {
			t.Error("repair dropped an innocent fact")
		}
	}
	if !seen[0] || !seen[1] {
		t.Errorf("repairs = %v", seen)
	}
}

func TestMinimalRepairsConsistentKB(t *testing.T) {
	s := store.MustFromAtoms([]logic.Atom{logic.NewAtom("p", logic.C("a"))})
	kb := core.MustKB(s, nil, nil)
	rs, err := MinimalRepairs(kb, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || len(rs[0].Removed) != 0 {
		t.Errorf("consistent KB repairs = %v", rs)
	}
}

func TestMinimalRepairsRefusesLarge(t *testing.T) {
	kb := fig1aKB(t)
	if _, err := MinimalRepairs(kb, 1); err == nil {
		t.Error("candidate limit not enforced")
	}
}

func TestCompareInformationLoss(t *testing.T) {
	// Update repair of the same KB via inquiry, then compare.
	kb := fig1aKB(t)
	e := inquiry.New(kb.Clone(), inquiry.OptiJoin{}, inquiry.NewSimulatedUser(3), 3, inquiry.Options{})
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := Compare(kb, res.AppliedFixes)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.DeletionRemovedFacts != 1 || cmp.DeletionLostPositions != 2 {
		t.Errorf("deletion side = %+v", cmp)
	}
	if cmp.UpdateChangedValues == 0 {
		t.Error("update side empty")
	}
	// The §1 argument: update repairing touches fewer positions than
	// deletion loses.
	if cmp.UpdateChangedValues > cmp.DeletionLostPositions {
		t.Errorf("update repair (%d values) lost more than deletion (%d positions)",
			cmp.UpdateChangedValues, cmp.DeletionLostPositions)
	}
}
