package conflict_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"kbrepair/internal/chase"
	"kbrepair/internal/conflict"
	"kbrepair/internal/logic"
	"kbrepair/internal/store"
)

// headRuleKB is the rule set where an update reaches a CDD only through a
// TGD head: p(X,Y) → h1(X,Y) and a(X) → h1(X,Z), h2(X,Z), with CDDs
// h1(X,Y), bad(Y) → ⊥ and h2(X,Y), z(X) → ⊥, over a(k), p(k,c), h2(k,c),
// z(k), bad(c). While p(k,c) derives h1(k,c), the second rule's head is
// satisfied; once p's second argument changes, it fires and derives a new
// h2 fact, though no TGD body links p to h2.
func headRuleKB() (*store.Store, []*logic.TGD, []*logic.CDD) {
	a, c, v := logic.NewAtom, logic.C, logic.V
	s := store.MustFromAtoms([]logic.Atom{
		a("a", c("k")), a("p", c("k"), c("c")), a("h2", c("k"), c("c")), a("z", c("k")), a("bad", c("c")),
	})
	tgds := []*logic.TGD{
		logic.MustTGD([]logic.Atom{a("p", v("X"), v("Y"))}, []logic.Atom{a("h1", v("X"), v("Y"))}),
		logic.MustTGD([]logic.Atom{a("a", v("X"))}, []logic.Atom{a("h1", v("X"), v("Z")), a("h2", v("X"), v("Z"))}),
	}
	cdds := []*logic.CDD{
		logic.MustCDD([]logic.Atom{a("h1", v("X"), v("Y")), a("bad", v("Y"))}),
		logic.MustCDD([]logic.Atom{a("h2", v("X"), v("Y")), a("z", v("X"))}),
	}
	return s, tgds, cdds
}

// TestRescanReachesThroughTGDHeads: updating p reaches the h2 CDD through
// the second TGD's head, and the re-scan equals a fresh scan, which holds
// two h2 conflicts. Without the head clause of the closure the h2 CDD
// would keep its one conflict from before the update.
func TestRescanReachesThroughTGDHeads(t *testing.T) {
	s, tgds, cdds := headRuleKB()
	rs := chase.NewRules(tgds, cdds, s)
	reach := conflict.NewReach(tgds, cdds)
	prev, err := conflict.AllInPlace(s, rs, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(prev) != 2 || prev[0].CDDIdx != 0 || prev[1].CDDIdx != 1 {
		t.Fatalf("before the update: %v, want one conflict of each CDD", prev)
	}
	pos := store.Position{Fact: 1, Arg: 1}
	old := s.MustSetValue(pos, s.NullForPos(pos))
	got, err := conflict.RescanInPlace(s, rs, chase.Options{}, prev, reach.Affected("p", old, s.Value(pos)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := conflict.AllInPlace(s, rs, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 2 || want[0].CDDIdx != 1 || want[1].CDDIdx != 1 {
		t.Fatalf("fresh scan after the update: %v, want two h2 conflicts", want)
	}
	sameConflicts(t, "after the update", got, want)
}

// TestReachAffected: a predicate reaches the CDDs over itself and over the
// head predicates of the TGDs mentioning it, closed under the TGDs; a predicate no rule mentions reaches
// none, and a value shaped like a chase-invented null, on either side of
// the update, marks every CDD (nil).
func TestReachAffected(t *testing.T) {
	_, tgds, cdds := headRuleKB()
	reach := conflict.NewReach(tgds, cdds)
	for _, tc := range []struct {
		pred string
		want []bool
	}{
		{"p", []bool{true, true}},
		{"a", []bool{true, true}},
		{"h1", []bool{true, true}},
		// An h2 fact can satisfy the second TGD's head, so h1 changes too.
		{"h2", []bool{true, true}},
		{"z", []bool{false, true}},
		{"bad", []bool{true, false}},
		{"other", []bool{false, false}},
	} {
		if got := reach.Affected(tc.pred, logic.C("x"), logic.N("f1a1")); !slices.Equal(got, tc.want) {
			t.Errorf("%s reaches %v, want %v", tc.pred, got, tc.want)
		}
	}
	for _, vals := range [][2]logic.Term{
		{logic.N("n1r0t0x0"), logic.C("x")},
		{logic.C("x"), logic.N("n2r1t3x0c1")},
	} {
		if got := reach.Affected("bad", vals[0], vals[1]); got != nil {
			t.Errorf("update %s → %s reaches %v, want every CDD (nil)", vals[0], vals[1], got)
		}
	}
}

// TestRescanAfterCoordinateShapedValue: writing the label the chase would
// give its next invented null into a fact that no rule mentions makes the
// chase escape that label, so the conflict over the invented null changes
// its key though the update reaches no CDD by predicate. The re-scan
// searches every CDD and equals a fresh scan.
func TestRescanAfterCoordinateShapedValue(t *testing.T) {
	a, c, v := logic.NewAtom, logic.C, logic.V
	s := store.MustFromAtoms([]logic.Atom{a("q", c("k")), a("t", c("k")), a("u", c("x"))})
	tgds := []*logic.TGD{logic.MustTGD([]logic.Atom{a("q", v("X"))}, []logic.Atom{a("r", v("X"), v("Z"))})}
	cdds := []*logic.CDD{logic.MustCDD([]logic.Atom{a("r", v("X"), v("Y")), a("t", v("X"))})}
	rs := chase.NewRules(tgds, cdds, s)
	prev, err := conflict.AllInPlace(s, rs, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pos := store.Position{Fact: 2, Arg: 0}
	invented := logic.N(store.CoordNullLabel(1, 0, 0, 0))
	if len(prev) != 1 || prev[0].Hom[v("Y")] != invented {
		t.Fatalf("before the update: %v, want one conflict over %s", prev, invented)
	}
	old := s.MustSetValue(pos, invented)
	got, err := conflict.RescanInPlace(s, rs, chase.Options{}, prev,
		conflict.NewReach(tgds, cdds).Affected("u", old, invented))
	if err != nil {
		t.Fatal(err)
	}
	want, err := conflict.AllInPlace(s, rs, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 1 || want[0].Key() == prev[0].Key() {
		t.Fatalf("fresh scan after the update: %v, want one conflict over an escaped null", want)
	}
	sameConflicts(t, "after the update", got, want)
}

// TestRescanMatchesFreshScan is the conflict-level differential of
// RescanInPlace: on every KB of the scan table, a run of random value
// updates — values from the position's active domain, fresh position
// nulls, constants and now and then a coordinate-shaped null — each
// followed by a re-scan of the CDDs the update reaches, from the previous
// re-scan's result, must give exactly what a fresh scan gives and leave
// the store as it was.
func TestRescanMatchesFreshScan(t *testing.T) {
	for _, e := range scanTable(t) {
		kb := e.kb.Clone()
		s := kb.Facts
		reach := conflict.NewReach(kb.TGDs, kb.CDDs)
		rng := rand.New(rand.NewSource(5))
		prev, err := conflict.AllInPlace(s, kb.Rules, kb.ChaseOpts)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 40; step++ {
			id := store.FactID(rng.Intn(s.Len()))
			pos := store.Position{Fact: id, Arg: rng.Intn(s.Arity(id))}
			var val logic.Term
			switch r := rng.Intn(10); {
			case r < 5:
				val = s.Value(store.Position{Fact: store.FactID(rng.Intn(s.Len())), Arg: 0})
			case r < 8:
				val = s.NullForPos(pos)
			case r < 9:
				val = logic.C(fmt.Sprintf("c%d", step))
			default:
				val = logic.N(store.CoordNullLabel(1, 0, step, 0))
			}
			old := s.MustSetValue(pos, val)
			name := fmt.Sprintf("%s, step %d (%s := %s)", e.name, step, pos, val)
			before := s.Clone()
			got, err := conflict.RescanInPlace(s, kb.Rules, kb.ChaseOpts, prev,
				reach.Affected(s.FactRef(id).Pred, old, val))
			if err != nil {
				t.Fatal(err)
			}
			restored(t, name, s, before)
			want, err := conflict.AllInPlace(s, kb.Rules, kb.ChaseOpts)
			if err != nil {
				t.Fatal(err)
			}
			sameConflicts(t, name, got, want)
			prev = got
		}
	}
}
