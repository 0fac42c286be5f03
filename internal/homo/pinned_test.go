package homo

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"kbrepair/internal/logic"
	"kbrepair/internal/store"
)

// refBind is the reference pin: it unifies a body atom with a ground fact
// through a map, returning the bindings of the atom's variables, or false
// when they are incompatible (a predicate or arity mismatch, a differing
// ground term, a repeated variable meeting two values).
func refBind(pattern, fact logic.Atom) (logic.Subst, bool) {
	if pattern.Pred != fact.Pred || len(pattern.Args) != len(fact.Args) {
		return nil, false
	}
	sub := logic.NewSubst()
	for i, pt := range pattern.Args {
		ft := fact.Args[i]
		if !pt.IsVar() {
			if pt != ft {
				return nil, false
			}
			continue
		}
		if cur, ok := sub[pt]; ok && cur != ft {
			return nil, false
		}
		sub[pt] = ft
	}
	return sub, true
}

// pinFixture is a store over p/2, q/2 and r/1 whose terms are three
// constants and a labeled null, with a duplicated fact and facts that
// repeat a term, so pins hit and miss in every way.
func pinFixture(tb testing.TB) *store.Store {
	tb.Helper()
	terms := []logic.Term{logic.C("a"), logic.C("b"), logic.C("c"), logic.N("n")}
	s := store.New()
	for _, x := range terms {
		s.MustAdd(logic.NewAtom("r", x))
		for _, y := range terms {
			if x.Name < y.Name || x == y {
				s.MustAdd(logic.NewAtom("p", x, y))
			}
			if x != y {
				s.MustAdd(logic.NewAtom("q", x, y))
			}
		}
	}
	s.MustAdd(logic.NewAtom("p", logic.C("a"), logic.C("b")))
	return s
}

// pinBodies returns generated bodies of one to three atoms over the
// fixture's predicates — variables shared across and repeated within
// atoms, constants and the null — plus bodies whose rest, once any atom
// but the first is pinned, is a triangle, which compiles to the WCOJ
// kernel.
func pinBodies() [][]logic.Atom {
	r := rand.New(rand.NewSource(4))
	vars := []logic.Term{logic.V("X"), logic.V("Y"), logic.V("Z")}
	ground := []logic.Term{logic.C("a"), logic.C("c"), logic.N("n")}
	term := func() logic.Term {
		if r.Intn(5) == 0 {
			return ground[r.Intn(len(ground))]
		}
		return vars[r.Intn(len(vars))]
	}
	var out [][]logic.Atom
	for range 60 {
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
		out = append(out, body)
	}
	x, y, z, w := logic.V("X"), logic.V("Y"), logic.V("Z"), logic.V("W")
	return append(out,
		[]logic.Atom{logic.NewAtom("r", w), logic.NewAtom("p", x, y), logic.NewAtom("q", y, z), logic.NewAtom("q", z, x)},
		[]logic.Atom{logic.NewAtom("p", x, x), logic.NewAtom("q", x, y), logic.NewAtom("q", y, z), logic.NewAtom("p", z, x)},
	)
}

// TestPinnedMatchesReferenceBinder: for every generated body, every pinned
// atom and every fixture fact, ForEachPinned enumerates exactly the match
// set of the reference binder followed by a seeded search of the rest of
// the body, reports whether the pin bound, and ExistsPinned agrees — with
// and without stats, on both kernels.
func TestPinnedMatchesReferenceBinder(t *testing.T) {
	s := pinFixture(t)
	key := func(m Match) string { return m.Subst.Key() + fmt.Sprint(m.Facts) }
	var hits, matches int
	modes := map[Mode]int{}
	for bi, body := range pinBodies() {
		for ai := range body {
			rest := slices.Delete(slices.Clone(body), ai, ai+1)
			for _, stats := range []*store.Store{nil, s} {
				p := PinnedPlan(body, ai, stats)
				modes[p.Mode()]++
				for _, id := range s.IDs() {
					fact := s.FactRef(id)
					name := fmt.Sprintf("body %d %v pinned at %d onto %s", bi, body, ai, fact)
					var want []string
					seed, ok := refBind(body[ai], fact)
					if ok {
						ReferenceForEachSeeded(s, rest, seed, func(m Match) bool {
							want = append(want, key(m))
							return true
						})
					}
					var got []string
					bound := p.ForEachPinned(s, fact, func(m Match) bool {
						got = append(got, key(m))
						return true
					})
					slices.Sort(want)
					slices.Sort(got)
					if bound != ok || !slices.Equal(got, want) {
						t.Fatalf("%s: ForEachPinned bound %v with %v, reference bound %v with %v", name, bound, got, ok, want)
					}
					if e := p.ExistsPinned(s, fact); e != (len(want) > 0) {
						t.Fatalf("%s: ExistsPinned = %v with %d reference matches", name, e, len(want))
					}
					if ok {
						hits++
					}
					matches += len(got)
				}
			}
		}
	}
	if hits == 0 || matches == 0 || modes[ModeWCOJ] == 0 || modes[ModeStatic] == 0 {
		t.Fatalf("table too weak: %d pins bound, %d matches, plans per kernel %v", hits, matches, modes)
	}
}

// pinnedMisses is a two-atom body pinned at an atom with a constant and a
// repeated variable, and facts it misses in each way.
func pinnedMisses(tb testing.TB) (*store.Store, *Plan, map[string]logic.Atom) {
	tb.Helper()
	s := pinFixture(tb)
	x, y := logic.V("X"), logic.V("Y")
	body := []logic.Atom{
		logic.NewAtom("q", x, y),
		logic.NewAtom("p", logic.C("a"), x, x),
	}
	s.MustAdd(logic.NewAtom("p", logic.C("a"), logic.C("b"), logic.C("b")))
	s.MustAdd(logic.NewAtom("p", logic.C("c"), logic.C("b"), logic.C("b")))
	s.MustAdd(logic.NewAtom("p", logic.C("a"), logic.C("b"), logic.C("c")))
	return s, PinnedPlan(body, 1, s), map[string]logic.Atom{
		"predicate":         logic.NewAtom("r", logic.C("a")),
		"arity":             logic.NewAtom("p", logic.C("a"), logic.C("b")),
		"constant":          logic.NewAtom("p", logic.C("c"), logic.C("b"), logic.C("b")),
		"repeated variable": logic.NewAtom("p", logic.C("a"), logic.C("b"), logic.C("c")),
	}
}

// TestPinnedMissAllocatesNothing: a pin that does not map onto the fact is
// rejected before any search, with no allocation, whichever way it misses;
// the hit the misses are variations of finds its matches, allocation-free
// on a warm pool.
func TestPinnedMissAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful without -race")
	}
	s, p, misses := pinnedMisses(t)
	hit := logic.NewAtom("p", logic.C("a"), logic.C("b"), logic.C("b"))
	n := 0
	fn := func(Match) bool { n++; return true }
	if !p.ForEachPinned(s, hit, fn) || n == 0 || !p.ExistsPinned(s, hit) {
		t.Fatalf("pin onto %s found %d matches, want some", hit, n)
	}
	// On a warm pool a hit allocates nothing either: its bindings go
	// straight into the pooled executor's slots.
	if a := testing.AllocsPerRun(200, func() { p.ForEachPinned(s, hit, fn) }); a != 0 {
		t.Errorf("hit: ForEachPinned allocates %v allocs/op, want 0", a)
	}
	// The pinned atom alone, whose rest is the empty conjunction: its
	// match is materialized in the pooled executor too.
	one := PinnedPlan([]logic.Atom{logic.NewAtom("p", logic.C("a"), logic.V("X"), logic.V("X"))}, 0, s)
	one.ForEachPinned(s, hit, fn)
	if a := testing.AllocsPerRun(200, func() { one.ForEachPinned(s, hit, fn) }); a != 0 {
		t.Errorf("hit on a one-atom body: ForEachPinned allocates %v allocs/op, want 0", a)
	}
	for how, fact := range misses {
		if p.ForEachPinned(s, fact, fn) || p.ExistsPinned(s, fact) {
			t.Fatalf("%s miss: pin onto %s bound", how, fact)
		}
		if a := testing.AllocsPerRun(200, func() { p.ForEachPinned(s, fact, fn) }); a != 0 {
			t.Errorf("%s miss: ForEachPinned allocates %v allocs/op, want 0", how, a)
		}
		if a := testing.AllocsPerRun(200, func() { p.ExistsPinned(s, fact) }); a != 0 {
			t.Errorf("%s miss: ExistsPinned allocates %v allocs/op, want 0", how, a)
		}
	}
}

// BenchmarkHomoPinnedHit measures a pinned search whose pin binds: the
// slots written from the fact, then the rest of the body searched. Must
// report 0 allocs/op.
func BenchmarkHomoPinnedHit(b *testing.B) {
	s, p, _ := pinnedMisses(b)
	hit := logic.NewAtom("p", logic.C("a"), logic.C("b"), logic.C("b"))
	fn := func(Match) bool { return true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ForEachPinned(s, hit, fn)
	}
}

// BenchmarkHomoPinnedMiss measures the rejection of a pin that does not
// map onto the fact: the common case of delta collection and tracker
// updates. Must report 0 allocs/op.
func BenchmarkHomoPinnedMiss(b *testing.B) {
	s, p, misses := pinnedMisses(b)
	miss := misses["repeated variable"]
	fn := func(Match) bool { return true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ForEachPinned(s, miss, fn)
	}
}
