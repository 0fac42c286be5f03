package chase_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"kbrepair/internal/chase"
	"kbrepair/internal/durum"
	"kbrepair/internal/logic"
	"kbrepair/internal/obs"
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
			want, err := chase.IsConsistentOpt(fixed, chase.NewRules(tgds, cdds, fixed), chase.Options{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			chk := chase.NewChecker(chase.NewRules(tgds, cdds, c.s))
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

// rewriteNulls applies h to every fact of s that holds one of its nulls,
// base and derived, in place, and returns the rewritten facts' ids in
// ascending order — what the Π-checker does to its saturation when
// positions enter Π.
func rewriteNulls(s *store.Store, h map[logic.Term]logic.Term) []store.FactID {
	var ids []store.FactID
	for id := range store.FactID(s.Len()) {
		hit := false
		for i := range s.Arity(id) {
			p := store.Position{Fact: id, Arg: i}
			if v, ok := h[s.Value(p)]; ok {
				s.MustSetValue(p, v)
				hit = true
			}
		}
		if hit {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestContinueFromMatchesFullCheck is the property behind keeping the
// Π-check saturation across answers: on consistent random stores I with
// uniquely-held nulls (synth and Durum Wheat), saturating I, rewriting
// some of those nulls n_p to values v_p in every fact that holds them, and
// continuing the chase from the rewritten facts decides consistency
// exactly like IsConsistentOpt on I with each p := v_p. No v_p is a null
// the saturation invented. A one-derivation budget must exit with
// ErrBudget and truncate the store back to its state before the call.
// More cases run under the CDDs alone, where the continuation is the
// ⊥-rules pinned at the rewritten facts.
func TestContinueFromMatchesFullCheck(t *testing.T) {
	var consistent, aborted, derived, budget int
	// check runs one case on facts under the rules and tallies its outcome:
	// I nulls a share of the positions, growing it until I is consistent,
	// and some of them get back their value in the KB (at every nulled
	// position that held it, which may complete joins and violations), a
	// value at another position, or a fresh constant.
	check := func(name string, r *rand.Rand, facts *store.Store, tgds []*logic.TGD, cdds []*logic.CDD) {
		i := facts.Clone()
		var nulled []store.Position
		for share := 0.1 + 0.3*r.Float64(); ; share = 0.3 {
			for _, p := range facts.Positions() {
				if i.Value(p) == facts.Value(p) && r.Float64() < share {
					i.MustSetValue(p, facts.NullForPos(p))
					nulled = append(nulled, p)
				}
			}
			if ok, err := chase.IsConsistentOpt(i, chase.NewRules(tgds, cdds, i), chase.Options{}); err != nil {
				t.Fatalf("%s: %v", name, err)
			} else if ok {
				break
			} else if len(nulled) == i.NumPositions() {
				return
			}
		}
		ps := facts.Positions()
		fixed := i.Clone()
		h := make(map[logic.Term]logic.Term)
		used := make(map[logic.Term]bool)
		rewrite := func(p store.Position, v logic.Term) {
			// h must rewrite each null once, and to no null it rewrites.
			n := i.Value(p)
			if _, done := h[n]; done || used[n] {
				return
			}
			if _, rewritten := h[v]; rewritten || v == n {
				return
			}
			h[n] = v
			used[v] = true
			fixed.MustSetValue(p, v)
		}
		for k := 1 + r.Intn(3); k > 0; k-- {
			p := nulled[r.Intn(len(nulled))]
			switch r.Intn(4) {
			case 0:
				rewrite(p, fixed.Value(ps[r.Intn(len(ps))]))
			case 1:
				rewrite(p, logic.C(fmt.Sprintf("fresh%d", r.Intn(3))))
			default:
				// Restore p's value at every nulled position that held
				// it, which brings back the joins on it.
				for _, q := range nulled {
					if facts.Value(q) == facts.Value(p) {
						rewrite(q, facts.Value(q))
					}
				}
			}
		}
		if len(h) == 0 {
			return
		}
		want, err := chase.IsConsistentOpt(fixed, chase.NewRules(tgds, cdds, fixed), chase.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		chk := chase.NewChecker(chase.NewRules(tgds, cdds, i))
		ok, err := chk.Saturate(i, chase.Options{})
		if err != nil {
			t.Fatalf("%s: saturate: %v", name, err)
		}
		if !ok {
			t.Fatalf("%s: saturation of a consistent I derived ⊥", name)
		}
		ids := rewriteNulls(i, h)
		before := i.Clone()
		if _, err := chk.ContinueFrom(i, ids, chase.Options{MaxDerived: 1}); errors.Is(err, chase.ErrBudget) {
			budget++
			sameAs(t, name+" (budget)", i, before)
		} else if err != nil {
			t.Fatalf("%s: budget continuation: %v", name, err)
		} else {
			i.Truncate(before.Len())
		}
		got, err := chk.ContinueFrom(i, ids, chase.Options{})
		if err != nil {
			t.Fatalf("%s: continue: %v", name, err)
		}
		if got != want {
			t.Fatalf("%s: rewriting %v: continuation says %v, full check %v", name, h, got, want)
		}
		if i.Len() > before.Len() {
			derived++
		}
		if got {
			consistent++
		} else {
			aborted++
		}
	}
	for seed := int64(1); seed <= 12; seed++ {
		g, err := synth.Generate(synth.Params{Seed: seed, NumFacts: 60 + 10*int(seed),
			InconsistencyRatio: 0.3, NumCDDs: 6, NumTGDs: 2 + int(seed)%4, JoinVarRatio: 0.4})
		if err != nil {
			t.Fatal(err)
		}
		kb := g.KB
		r := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 25; trial++ {
			check(fmt.Sprintf("seed %d trial %d", seed, trial), r, kb.Facts, kb.TGDs, kb.CDDs)
		}
		r = rand.New(rand.NewSource(-seed))
		for trial := 0; trial < 25; trial++ {
			check(fmt.Sprintf("seed %d trial %d without TGDs", seed, trial), r, kb.Facts, nil, kb.CDDs)
		}
	}
	// Synth TGDs copy their body into their head, so a rewrite never
	// makes them fire; Durum Wheat's join and invent nulls.
	dw, _, err := durum.Build(durum.V2)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		check(fmt.Sprintf("durum trial %d", trial), r, dw.Facts, dw.TGDs, dw.CDDs)
	}
	if consistent == 0 || aborted == 0 || derived == 0 || budget == 0 {
		t.Fatalf("table too weak: %d consistent, %d ⊥ aborts, %d continuations that derived, %d budget exits",
			consistent, aborted, derived, budget)
	}
}

// TestContinueFromShapes pins two trigger shapes of a continuation from
// rewritten facts. A body whose two atoms both land on rewritten facts
// yields one trigger, checked and fired once, under its lowest rewritten
// atom. A head of two atoms sharing an existential is checked as a whole
// against the rewritten facts, and when it fires, both atoms get the same
// invented null, so a CDD joining them sees ⊥. Each verdict must equal
// IsConsistentOpt on the rewritten base facts.
func TestContinueFromShapes(t *testing.T) {
	X, Z := logic.V("X"), logic.V("Z")
	a, n1, n2 := logic.C("a"), logic.N("f0a0"), logic.N("f1a0")
	for _, tc := range []struct {
		name  string
		facts []logic.Atom
		tgds  []*logic.TGD
		cdds  []*logic.CDD
		// firings is the number of rule firings the continuation must
		// make, and checks its trigger checks.
		firings, checks int64
	}{
		{
			name:  "two rewritten body atoms",
			facts: []logic.Atom{logic.NewAtom("p", n1), logic.NewAtom("q", n2)},
			tgds: []*logic.TGD{logic.MustTGD(
				[]logic.Atom{logic.NewAtom("p", X), logic.NewAtom("q", X)},
				[]logic.Atom{logic.NewAtom("t", X, Z)})},
			cdds:    []*logic.CDD{logic.MustCDD([]logic.Atom{logic.NewAtom("t", X, Z), logic.NewAtom("bad", Z)})},
			firings: 1, checks: 1,
		},
		{
			name:  "satisfied shared-existential head",
			facts: []logic.Atom{logic.NewAtom("s", n1), logic.NewAtom("mark", a)},
			tgds: []*logic.TGD{logic.MustTGD(
				[]logic.Atom{logic.NewAtom("s", X)},
				[]logic.Atom{logic.NewAtom("t", X, Z), logic.NewAtom("u", Z)})},
			cdds: []*logic.CDD{logic.MustCDD([]logic.Atom{
				logic.NewAtom("t", X, Z), logic.NewAtom("u", Z), logic.NewAtom("mark", X)})},
			// ⊥ from the rewritten t(a, z) and the kept u(z); s(a)'s head
			// is satisfied by them, so the TGD does not fire.
			firings: 1, checks: 2,
		},
		{
			name: "fired shared-existential head",
			facts: []logic.Atom{logic.NewAtom("s", n1), logic.NewAtom("k", a),
				logic.NewAtom("mark", a)},
			tgds: []*logic.TGD{logic.MustTGD(
				[]logic.Atom{logic.NewAtom("s", X), logic.NewAtom("k", X)},
				[]logic.Atom{logic.NewAtom("t", X, Z), logic.NewAtom("u", Z)})},
			cdds: []*logic.CDD{logic.MustCDD([]logic.Atom{
				logic.NewAtom("t", X, Z), logic.NewAtom("u", Z), logic.NewAtom("mark", X)})},
			firings: 2, checks: 2,
		},
	} {
		s := store.MustFromAtoms(tc.facts)
		chk := chase.NewChecker(chase.NewRules(tc.tgds, tc.cdds, s))
		ok, err := chk.Saturate(s, chase.Options{})
		if err != nil || !ok {
			t.Fatalf("%s: saturation %v, %v", tc.name, ok, err)
		}
		h := map[logic.Term]logic.Term{n1: a, n2: a}
		fixed := store.New()
		for id := range store.FactID(len(tc.facts)) {
			f := s.Fact(id)
			for i, x := range f.Args {
				if v, ok := h[x]; ok {
					f.Args[i] = v
				}
			}
			fixed.MustAdd(f)
		}
		want, err := chase.IsConsistentOpt(fixed, chase.NewRules(tc.tgds, tc.cdds, fixed), chase.Options{})
		if err != nil {
			t.Fatal(err)
		}
		firings, checks := obs.NewCounter("chase.rule_firings"), obs.NewCounter("chase.trigger_checks")
		f0, c0 := firings.Value(), checks.Value()
		got, err := chk.ContinueFrom(s, rewriteNulls(s, h), chase.Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != want {
			t.Fatalf("%s: continuation says %v, full check %v:\n%s", tc.name, got, want, s)
		}
		if f, c := firings.Value()-f0, checks.Value()-c0; f != tc.firings || c != tc.checks {
			t.Fatalf("%s: %d firings and %d trigger checks, want %d and %d:\n%s", tc.name, f, c, tc.firings, tc.checks, s)
		}
	}
}
