package chase

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"kbrepair/internal/homo"
	"kbrepair/internal/logic"
	"kbrepair/internal/store"
)

// randomDeltaRule draws a TGD body of one to three atoms over p/2, q/2
// and r/1, with variables shared across and repeated within atoms and the
// occasional constant — the shapes a pinned search must bind correctly.
func randomDeltaRule(r *rand.Rand, consts []logic.Term) *logic.TGD {
	vars := []logic.Term{logic.V("X"), logic.V("Y"), logic.V("Z")}
	term := func() logic.Term {
		if r.Intn(6) == 0 {
			return consts[r.Intn(len(consts))]
		}
		return vars[r.Intn(len(vars))]
	}
	body := make([]logic.Atom, 1+r.Intn(3))
	for i := range body {
		switch r.Intn(3) {
		case 0:
			body[i] = logic.NewAtom("p", term(), term())
		case 1:
			body[i] = logic.NewAtom("q", term(), term())
		default:
			body[i] = logic.NewAtom("r", term())
		}
	}
	return &logic.TGD{Body: body, Head: []logic.Atom{logic.NewAtom("h")}}
}

// TestDeltaCollectionMatchesFilter pins pinned delta collection to its
// definition: on random stores, rules and delta boundaries, collectDelta
// finds exactly the body homomorphisms that map some atom onto a fact with
// id ≥ lo — the set the enumerate-then-filter collection kept — each once,
// and for a delta listing random facts, exactly those that map some atom
// onto a listed fact, each once. Duplicate facts and updated values (index
// lists out of id order) are in the mix.
func TestDeltaCollectionMatchesFilter(t *testing.T) {
	consts := []logic.Term{logic.C("a"), logic.C("b"), logic.C("c"), logic.N("n")}
	key := func(m homo.Match) string { return fmt.Sprint(m.Facts, m.Subst.Key()) }
	var found, listed int
	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := store.New()
		n := 1 + r.Intn(14)
		for i := 0; i < n; i++ {
			c := func() logic.Term { return consts[r.Intn(len(consts))] }
			switch r.Intn(3) {
			case 0:
				s.MustAdd(logic.NewAtom("p", c(), c()))
			case 1:
				s.MustAdd(logic.NewAtom("q", c(), c()))
			default:
				s.MustAdd(logic.NewAtom("r", c()))
			}
			if i > 0 && r.Intn(5) == 0 {
				s.MustAdd(s.Fact(store.FactID(r.Intn(i))))
			}
		}
		for i := 0; i < n/3; i++ {
			id := store.FactID(r.Intn(s.Len()))
			s.MustSetValue(store.Position{Fact: id, Arg: r.Intn(s.Arity(id))}, consts[r.Intn(len(consts))])
		}
		lo := store.FactID(1 + r.Intn(s.Len()))
		rs := NewRules([]*logic.TGD{randomDeltaRule(r, consts)}, nil, s).table
		var want []string
		for _, m := range collectAll(s, rs.rules[0].body) {
			if slices.ContainsFunc(m.Facts, func(f store.FactID) bool { return f >= lo }) {
				want = append(want, key(m))
			}
		}
		var got []string
		for _, m := range collectDelta(s, rs.rules[0], delta{lo: lo}) {
			if len(m.Facts) != len(rs.rules[0].tgd.Body) {
				t.Fatalf("seed %d: match %v does not cover the body %v", seed, m.Facts, rs.rules[0].tgd.Body)
			}
			got = append(got, key(m))
		}
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: rule %s, delta from #%d:\n got %v\nwant %v\n%s", seed, rs.rules[0].tgd, lo, got, want, s)
		}
		found += len(got)
		// The same for a delta listing random facts, as a continuation
		// from rewritten facts has.
		var ids []store.FactID
		for id := range store.FactID(s.Len()) {
			if r.Intn(3) == 0 {
				ids = append(ids, id)
			}
		}
		want, got = want[:0], got[:0]
		for _, m := range collectAll(s, rs.rules[0].body) {
			if slices.ContainsFunc(m.Facts, func(f store.FactID) bool { return slices.Contains(ids, f) }) {
				want = append(want, key(m))
			}
		}
		for _, m := range collectDelta(s, rs.rules[0], listDelta(s, ids)) {
			got = append(got, key(m))
		}
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: rule %s, delta %v:\n got %v\nwant %v\n%s", seed, rs.rules[0].tgd, ids, got, want, s)
		}
		listed += len(got)
	}
	if found == 0 || listed == 0 {
		t.Fatalf("table too weak: %d tail and %d list delta triggers collected", found, listed)
	}
}

// TestOneAtomRowMissAllocatesNothing: a one-atom TGD's chase row pins its
// body atom without a plan, and collecting from a delta whose facts the
// atom does not map onto — another predicate, a differing constant, a
// repeated variable meeting two values — allocates nothing; a fact it maps
// onto is collected as a trigger with the atom's bindings.
func TestOneAtomRowMissAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful without -race")
	}
	x := logic.V("X")
	s := store.MustFromAtoms([]logic.Atom{
		logic.NewAtom("q", logic.C("a"), logic.C("a")),
		logic.NewAtom("p", logic.C("b"), logic.C("a"), logic.C("a")),
		logic.NewAtom("p", logic.C("a"), logic.C("a"), logic.C("b")),
		logic.NewAtom("p", logic.C("a"), logic.C("b"), logic.C("b")),
	})
	tgd := logic.MustTGD([]logic.Atom{logic.NewAtom("p", logic.C("a"), x, x)}, []logic.Atom{logic.NewAtom("h", x)})
	r := NewRules([]*logic.TGD{tgd}, nil, s).table.rules[0]
	if r.pinned != nil {
		t.Fatal("one-atom TGD row compiled a pinned plan")
	}
	for id, how := range []string{"predicate", "constant", "repeated variable"} {
		d := listDelta(s, []store.FactID{store.FactID(id)})
		if got := collectDelta(s, r, d); len(got) != 0 {
			t.Fatalf("%s miss: collected %v", how, got)
		}
		if a := testing.AllocsPerRun(200, func() { collectDelta(s, r, d) }); a != 0 {
			t.Errorf("%s miss: collectDelta allocates %v allocs/op, want 0", how, a)
		}
	}
	got := collectDelta(s, r, listDelta(s, []store.FactID{3}))
	if len(got) != 1 || !slices.Equal(got[0].Facts, []store.FactID{3}) || got[0].Subst.Key() != (logic.Subst{x: logic.C("b")}).Key() {
		t.Fatalf("hit: collected %v, want one trigger on fact 3 binding X to b", got)
	}
}
