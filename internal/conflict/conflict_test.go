package conflict

import (
	"math"
	"testing"

	"kbrepair/internal/chase"
	"kbrepair/internal/logic"
	"kbrepair/internal/store"
)

func fig1bKB(t testing.TB) (*store.Store, []*logic.TGD, []*logic.CDD) {
	t.Helper()
	s := store.MustFromAtoms([]logic.Atom{
		logic.NewAtom("prescribed", logic.C("Aspirin"), logic.C("John")),         // 0
		logic.NewAtom("hasAllergy", logic.C("John"), logic.C("Aspirin")),         // 1
		logic.NewAtom("hasAllergy", logic.C("Mike"), logic.C("Penicillin")),      // 2
		logic.NewAtom("hasPain", logic.C("John"), logic.C("Migraine")),           // 3
		logic.NewAtom("isPainKillerFor", logic.C("Nsaids"), logic.C("Migraine")), // 4
		logic.NewAtom("incompatible", logic.C("Aspirin"), logic.C("Nsaids")),     // 5
	})
	tgds := []*logic.TGD{logic.MustTGD(
		[]logic.Atom{
			logic.NewAtom("isPainKillerFor", logic.V("X"), logic.V("Y")),
			logic.NewAtom("hasPain", logic.V("Z"), logic.V("Y")),
		},
		[]logic.Atom{logic.NewAtom("prescribed", logic.V("X"), logic.V("Z"))},
	)}
	cdds := []*logic.CDD{
		logic.MustCDD([]logic.Atom{
			logic.NewAtom("prescribed", logic.V("X"), logic.V("Y")),
			logic.NewAtom("hasAllergy", logic.V("Y"), logic.V("X")),
		}),
		logic.MustCDD([]logic.Atom{
			logic.NewAtom("prescribed", logic.V("X"), logic.V("Z")),
			logic.NewAtom("prescribed", logic.V("Y"), logic.V("Z")),
			logic.NewAtom("incompatible", logic.V("X"), logic.V("Y")),
		}),
	}
	return s, tgds, cdds
}

func TestAllNaive(t *testing.T) {
	s, _, cdds := fig1bKB(t)
	cs := AllNaive(s, chase.NewRules(nil, cdds, s))
	// Only the allergy CDD is violated at base level (Example 2.4's X1).
	if len(cs) != 1 {
		t.Fatalf("naive conflicts = %d, want 1", len(cs))
	}
	c := cs[0]
	if c.CDDIdx != 0 {
		t.Errorf("conflict on cdd %d", c.CDDIdx)
	}
	if c.Hom.Lookup(logic.V("X")) != logic.C("Aspirin") || c.Hom.Lookup(logic.V("Y")) != logic.C("John") {
		t.Errorf("hom = %v", c.Hom)
	}
	if len(c.BaseFacts) != 2 || c.BaseFacts[0] != 0 || c.BaseFacts[1] != 1 {
		t.Errorf("BaseFacts = %v", c.BaseFacts)
	}
	if !c.InvolvesFact(0) || c.InvolvesFact(2) {
		t.Error("InvolvesFact wrong")
	}
	if len(c.Positions(s)) != 4 {
		t.Errorf("Positions = %v", c.Positions(s))
	}
}

func TestAllWithChase(t *testing.T) {
	s, tgds, cdds := fig1bKB(t)
	cs, res, err := All(s, chase.NewRules(tgds, cdds, s), chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Example 2.4: exactly two conflicts, X1 (allergy) and X2 (incompatible).
	if len(cs) != 2 {
		t.Fatalf("conflicts = %d, want 2: %v", len(cs), cs)
	}
	var incompat *Conflict
	for _, c := range cs {
		if c.CDDIdx == 1 {
			incompat = c
		}
	}
	if incompat == nil {
		t.Fatal("incompatibility conflict not found")
	}
	// Its base support must include the prescribed(Aspirin,John) fact and
	// the TGD's body facts (hasPain, isPainKillerFor) plus incompatible.
	wantSupport := map[store.FactID]bool{0: true, 3: true, 4: true, 5: true}
	if len(incompat.BaseFacts) != len(wantSupport) {
		t.Fatalf("base support = %v", incompat.BaseFacts)
	}
	for _, f := range incompat.BaseFacts {
		if !wantSupport[f] {
			t.Errorf("unexpected support fact %d", f)
		}
	}
	if res.Store.Len() != s.Len()+1 {
		t.Errorf("chase result size = %d", res.Store.Len())
	}
}

func TestAllDeduplicatesSymmetricHoms(t *testing.T) {
	// A symmetric CDD can generate (X=a,Y=b) and (X=b,Y=a): both are
	// distinct homs and both must be kept; identical homs must be merged.
	s := store.MustFromAtoms([]logic.Atom{
		logic.NewAtom("p", logic.C("a"), logic.C("b")),
		logic.NewAtom("p", logic.C("b"), logic.C("a")),
	})
	cdds := []*logic.CDD{logic.MustCDD([]logic.Atom{
		logic.NewAtom("p", logic.V("X"), logic.V("Y")),
		logic.NewAtom("p", logic.V("Y"), logic.V("X")),
	})}
	cs := AllNaive(s, chase.NewRules(nil, cdds, s))
	if len(cs) != 2 {
		t.Errorf("conflicts = %d, want 2 (one per hom)", len(cs))
	}
}

func TestTrackerInitialAndUpdate(t *testing.T) {
	s, _, cdds := fig1bKB(t)
	tr := NewTracker(s, chase.NewRules(nil, cdds, s))
	if tr.Len() != 1 {
		t.Fatalf("initial conflicts = %d, want 1", tr.Len())
	}
	// Fix the allergy to a fresh null: conflict disappears.
	p := store.Position{Fact: 1, Arg: 1}
	s.MustSetValue(p, s.NullForPos(p))
	tr.Update(1)
	if tr.Len() != 0 {
		t.Errorf("conflicts after repair = %d, want 0", tr.Len())
	}
	// Introduce a new violation: hasAllergy(Mike, Penicillin) →
	// hasAllergy(John, Aspirin) again via two updates.
	s.MustSetValue(store.Position{Fact: 2, Arg: 0}, logic.C("John"))
	tr.Update(2)
	if tr.Len() != 0 {
		t.Errorf("half-updated fact should not conflict yet: %d", tr.Len())
	}
	s.MustSetValue(store.Position{Fact: 2, Arg: 1}, logic.C("Aspirin"))
	tr.Update(2)
	if tr.Len() != 1 {
		t.Fatalf("conflicts after reintroduction = %d, want 1", tr.Len())
	}
	c := tr.Conflicts()[0]
	if !c.InvolvesFact(2) || !c.InvolvesFact(0) {
		t.Errorf("conflict facts = %v", c.BaseFacts)
	}
	if got := tr.ConflictsOfFact(2); len(got) != 1 {
		t.Errorf("ConflictsOfFact = %v", got)
	}
	if got := tr.ConflictsOfFact(1); len(got) != 0 {
		t.Errorf("repaired fact still in conflicts: %v", got)
	}
}

// TestTrackerMatchesRecompute drives random mutations and checks the
// incremental tracker against a from-scratch recomputation.
func TestTrackerMatchesRecompute(t *testing.T) {
	s := store.MustFromAtoms([]logic.Atom{
		logic.NewAtom("p", logic.C("a"), logic.C("b")),
		logic.NewAtom("p", logic.C("b"), logic.C("c")),
		logic.NewAtom("q", logic.C("b"), logic.C("a")),
		logic.NewAtom("q", logic.C("c"), logic.C("b")),
		logic.NewAtom("r", logic.C("a")),
	})
	cdds := []*logic.CDD{
		logic.MustCDD([]logic.Atom{
			logic.NewAtom("p", logic.V("X"), logic.V("Y")),
			logic.NewAtom("q", logic.V("Y"), logic.V("X")),
		}),
		logic.MustCDD([]logic.Atom{
			logic.NewAtom("p", logic.V("X"), logic.V("X")),
		}),
		logic.MustCDD([]logic.Atom{
			logic.NewAtom("r", logic.V("X")),
			logic.NewAtom("p", logic.V("X"), logic.V("Y")),
		}),
	}
	rs := chase.NewRules(nil, cdds, s)
	tr := NewTracker(s, rs)
	check := func(step string) {
		t.Helper()
		want := AllNaive(s, rs)
		if tr.Len() != len(want) {
			t.Fatalf("%s: tracker=%d recompute=%d", step, tr.Len(), len(want))
		}
		wantKeys := make(map[string]bool)
		for _, c := range want {
			wantKeys[c.Key()] = true
		}
		for _, c := range tr.Conflicts() {
			if !wantKeys[c.Key()] {
				t.Fatalf("%s: tracker has extra conflict %s", step, c.Key())
			}
		}
	}
	check("initial")
	muts := []struct {
		p store.Position
		v logic.Term
	}{
		{store.Position{Fact: 0, Arg: 1}, logic.C("a")}, // p(a,a): violates CDD2 and maybe others
		{store.Position{Fact: 2, Arg: 0}, logic.C("a")},
		{store.Position{Fact: 0, Arg: 0}, logic.C("c")},
		{store.Position{Fact: 4, Arg: 0}, logic.C("c")},
		{store.Position{Fact: 1, Arg: 0}, logic.C("c")},
		{store.Position{Fact: 3, Arg: 1}, logic.C("c")},
	}
	for i, m := range muts {
		s.MustSetValue(m.p, m.v)
		tr.Update(m.p.Fact)
		check(string(rune('a' + i)))
	}
}

func TestComputeStats(t *testing.T) {
	if st := ComputeStats(nil); st.NumConflicts != 0 {
		t.Error("empty stats wrong")
	}
	// Three conflicts: {0,1}, {1,2}, {5,6}. Overlaps: (c0,c1) share fact 1.
	mk := func(idx int, facts ...store.FactID) *Conflict {
		return &Conflict{CDDIdx: idx, Hom: logic.NewSubst(), BaseFacts: facts}
	}
	cs := []*Conflict{
		mk(0, 0, 1),
		mk(1, 1, 2),
		mk(2, 5, 6),
	}
	st := ComputeStats(cs)
	if st.NumConflicts != 3 {
		t.Errorf("NumConflicts = %d", st.NumConflicts)
	}
	if st.AtomsInConflicts != 5 {
		t.Errorf("AtomsInConflicts = %d", st.AtomsInConflicts)
	}
	if math.Abs(st.AvgAtomsPerConflict-2.0) > 1e-9 {
		t.Errorf("AvgAtomsPerConflict = %f", st.AvgAtomsPerConflict)
	}
	if math.Abs(st.AvgAtomsPerOverlap-1.0) > 1e-9 {
		t.Errorf("AvgAtomsPerOverlap = %f", st.AvgAtomsPerOverlap)
	}
	// Scopes: c0 overlaps c1, c1 overlaps c0, c2 overlaps none → (1+1+0)/3.
	if math.Abs(st.AvgScope-2.0/3.0) > 1e-9 {
		t.Errorf("AvgScope = %f", st.AvgScope)
	}
}

func TestPositionRanks(t *testing.T) {
	s, _, cdds := fig1bKB(t)
	tr := NewTracker(s, chase.NewRules(nil, cdds, s))
	ranks := tr.Degrees()
	// The single naive conflict involves facts 0 and 1 → 4 ranked positions.
	if len(ranks) != 4 {
		t.Fatalf("ranks = %v", ranks)
	}
	for p, r := range ranks {
		if r != 1 {
			t.Errorf("rank of %v = %d, want 1", p, r)
		}
	}
}
