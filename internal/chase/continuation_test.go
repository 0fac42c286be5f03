package chase_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"kbrepair/internal/chase"
	"kbrepair/internal/logic"
	"kbrepair/internal/store"
	"kbrepair/internal/synth"
)

// continuationCase is one random check of the continuation property: a
// store I where position p holds a null that occurs nowhere else, and a
// value v for p.
type continuationCase struct {
	s *store.Store
	p store.Position
	v logic.Term
	// dup reports that I already holds F′ (fact F with v at p) as a fact
	// of its own, so the continuation appends a duplicate.
	dup bool
}

// randomContinuationCase nulls a random share of the KB's positions (each
// gets its own store.NullForPos null, as in a Π-nulled instance), picks
// one nulled position p and draws v from: p's value in the KB (which may
// restore a planted violation), another position's value (a constant, or
// a null of I, either of which can complete a join), a constant occurring
// in the rules, or a constant occurring nowhere.
func randomContinuationCase(r *rand.Rand, facts *store.Store, tgds []*logic.TGD, cdds []*logic.CDD) continuationCase {
	s := facts.Clone()
	share := 0.3 + 0.7*r.Float64()
	var nulled []store.Position
	for _, p := range facts.Positions() {
		if r.Float64() < share {
			s.MustSetValue(p, facts.NullForPos(p))
			nulled = append(nulled, p)
		}
	}
	if len(nulled) == 0 {
		p := facts.Positions()[0]
		s.MustSetValue(p, facts.NullForPos(p))
		nulled = append(nulled, p)
	}
	c := continuationCase{s: s, p: nulled[r.Intn(len(nulled))]}
	var ruleConsts []logic.Term
	for _, t := range tgds {
		for _, a := range append(append([]logic.Atom(nil), t.Body...), t.Head...) {
			for _, x := range a.Args {
				if x.IsConst() {
					ruleConsts = append(ruleConsts, x)
				}
			}
		}
	}
	for _, d := range cdds {
		for _, a := range d.Body {
			for _, x := range a.Args {
				if x.IsConst() {
					ruleConsts = append(ruleConsts, x)
				}
			}
		}
	}
	ps := s.Positions()
	switch k := r.Intn(7); {
	case k < 3:
		c.v = facts.Value(c.p)
	case k < 5:
		c.v = s.Value(ps[r.Intn(len(ps))])
	case k == 5 && len(ruleConsts) > 0:
		c.v = ruleConsts[r.Intn(len(ruleConsts))]
	default:
		c.v = logic.C(fmt.Sprintf("fresh%d", r.Intn(1000)))
	}
	if c.v == s.Value(c.p) {
		c.v = logic.C("other")
	}
	if r.Intn(8) == 0 {
		c.s.MustAdd(fixedFact(c.s, c.p, c.v))
		c.dup = true
	}
	return c
}

// fixedFact is F′: the fact at p.Fact with v at p.
func fixedFact(s *store.Store, p store.Position, v logic.Term) logic.Atom {
	a := s.Fact(p.Fact)
	a.Args[p.Arg] = v
	return a
}

// TestContinuationMatchesFullCheck is the property behind saturate-once
// Π-checks: on random synth stores I with a uniquely-held null at p,
// saturating I and continuing the chase from F′ decides consistency exactly
// like IsConsistentOpt on I with p := v — across consistent continuations,
// ⊥ aborts and saturations that are already violated — and every
// continuation exit, ErrBudget included, truncates the store back to a
// state deeply equal to its pre-continuation clone. More cases are checked
// under the CDDs alone, where the saturation is I itself and the
// continuation is the ⊥-rules pinned at F′.
func TestContinuationMatchesFullCheck(t *testing.T) {
	var consistent, aborted, violated, budget, dups int
	for seed := int64(1); seed <= 12; seed++ {
		g, err := synth.Generate(synth.Params{Seed: seed, NumFacts: 60 + 10*int(seed),
			InconsistencyRatio: 0.3, NumCDDs: 6, NumTGDs: 2 + int(seed)%4, JoinVarRatio: 0.4})
		if err != nil {
			t.Fatal(err)
		}
		cdds := g.KB.CDDs
		// check runs one case under tgds and tallies its outcome.
		check := func(name string, r *rand.Rand, tgds []*logic.TGD) {
			c := randomContinuationCase(r, g.KB.Facts, tgds, cdds)
			fixed := c.s.Clone()
			fixed.MustSetValue(c.p, c.v)
			want, err := chase.IsConsistentOpt(fixed, tgds, cdds, chase.Options{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			chk := chase.NewChecker(tgds, cdds, c.s)
			ok, err := chk.Saturate(c.s, chase.Options{})
			if err != nil {
				t.Fatalf("%s: saturate: %v", name, err)
			}
			if !ok {
				// I is violated, and so is every I′ it maps into.
				if want {
					t.Fatalf("%s: saturation violated, but the fixed store is consistent", name)
				}
				violated++
				return
			}
			if c.dup {
				dups++
			}
			before := c.s.Clone()
			got, err := chk.ConsistentWith(c.s, fixedFact(c.s, c.p, c.v), chase.Options{})
			if err != nil {
				t.Fatalf("%s: continue: %v", name, err)
			}
			sameAs(t, name, c.s, before)
			if got != want {
				t.Fatalf("%s: fix %s := %s: continuation says %v, full check %v", name, c.p, c.v, got, want)
			}
			if got {
				consistent++
			} else {
				aborted++
			}
			// A one-derivation budget: a continuation that derives more
			// exits with ErrBudget and must still truncate back.
			if _, err := chk.ConsistentWith(c.s, fixedFact(c.s, c.p, c.v), chase.Options{MaxDerived: 1}); errors.Is(err, chase.ErrBudget) {
				budget++
			} else if err != nil {
				t.Fatalf("%s: budget continuation: %v", name, err)
			}
			sameAs(t, name+" (budget)", c.s, before)
		}
		r := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 25; trial++ {
			check(fmt.Sprintf("seed %d trial %d", seed, trial), r, g.KB.TGDs)
		}
		before := [3]int{consistent, aborted, violated}
		r = rand.New(rand.NewSource(-seed))
		for trial := 0; trial < 25; trial++ {
			check(fmt.Sprintf("seed %d trial %d without TGDs", seed, trial), r, nil)
		}
		if consistent == before[0] || aborted+violated == before[1]+before[2] {
			t.Fatalf("seed %d: CDD-only cases too weak: %d consistent, %d rejected", seed,
				consistent-before[0], aborted+violated-before[1]-before[2])
		}
	}
	if consistent == 0 || aborted == 0 || violated == 0 || budget == 0 || dups == 0 {
		t.Fatalf("table too weak: %d consistent, %d ⊥ aborts, %d violated saturations, %d budget exits, %d duplicates",
			consistent, aborted, violated, budget, dups)
	}
}

// sameAs requires s to be deeply equal to want, indexes included.
func sameAs(t *testing.T, name string, s, want *store.Store) {
	t.Helper()
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("%s: store differs from its pre-continuation clone:\n%s\nwant\n%s", name, s, want)
	}
}
