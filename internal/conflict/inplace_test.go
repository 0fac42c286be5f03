// External test package because synth depends on conflict (through core).
package conflict_test

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"kbrepair/internal/chase"
	"kbrepair/internal/conflict"
	"kbrepair/internal/core"
	"kbrepair/internal/durum"
	"kbrepair/internal/logic"
	"kbrepair/internal/par"
	"kbrepair/internal/store"
	"kbrepair/internal/synth"
)

type namedKB struct {
	name string
	kb   *core.KB
}

// scanTable is the KB table of the in-place scan and tracker-seeding
// tests: synth KBs without and with TGDs, Durum Wheat, a store holding one
// atom twice, and a KB whose chase derives a copy of a base atom (a
// two-atom head fires because its second atom is missing), so a CDD
// homomorphism onto base facts also maps onto the derived copy.
func scanTable(t *testing.T) []namedKB {
	t.Helper()
	var out []namedKB
	for _, p := range []synth.Params{
		{Seed: 3, NumFacts: 400, InconsistencyRatio: 0.4, NumCDDs: 12, JoinVarRatio: 0.5},
		{Seed: 5, NumFacts: 300, InconsistencyRatio: 0.25, NumCDDs: 10, NumTGDs: 6, JoinVarRatio: 0.3},
		{Seed: 8, NumFacts: 200, InconsistencyRatio: 0.3, NumCDDs: 8, NumTGDs: 10, JoinVarRatio: 0.4},
	} {
		g, err := synth.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedKB{fmt.Sprintf("synth seed %d, %d TGDs", p.Seed, p.NumTGDs), g.KB})
	}
	dw, _, err := durum.Build(durum.V2)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, namedKB{"durum v2", dw})
	out = append(out, namedKB{"duplicate atoms", dupKB(t)})
	copyKB, err := core.NewKB(store.MustFromAtoms([]logic.Atom{
		logic.NewAtom("p", logic.C("a")),
		logic.NewAtom("q", logic.C("a")),
		logic.NewAtom("t", logic.C("a")),
	}), []*logic.TGD{logic.MustTGD(
		[]logic.Atom{logic.NewAtom("p", logic.V("X"))},
		[]logic.Atom{logic.NewAtom("q", logic.V("X")), logic.NewAtom("r", logic.V("X"), logic.V("Z"))},
	)}, []*logic.CDD{logic.MustCDD([]logic.Atom{
		logic.NewAtom("q", logic.V("X")),
		logic.NewAtom("t", logic.V("X")),
	})})
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, namedKB{"derived copy of a base atom", copyKB})
	return out
}

// dupKB is the TestAllDeduplicatesSymmetricHoms shape with p(a, b) stored
// twice: the homomorphism {X↦a, Y↦b} maps onto either copy.
func dupKB(t *testing.T) *core.KB {
	t.Helper()
	kb, err := core.NewKB(store.MustFromAtoms([]logic.Atom{
		logic.NewAtom("p", logic.C("a"), logic.C("b")),
		logic.NewAtom("p", logic.C("a"), logic.C("b")),
		logic.NewAtom("p", logic.C("b"), logic.C("a")),
	}), nil, []*logic.CDD{logic.MustCDD([]logic.Atom{
		logic.NewAtom("p", logic.V("X"), logic.V("Y")),
		logic.NewAtom("p", logic.V("Y"), logic.V("X")),
	})})
	if err != nil {
		t.Fatal(err)
	}
	return kb
}

// sameConflicts requires got to equal want conflict by conflict, in order:
// key, CDD index, homomorphism, base support and Direct, and Facts for the
// direct conflicts (an in-place scan's non-direct Facts name derived
// facts that no longer exist).
func sameConflicts(t *testing.T, name string, got, want []*conflict.Conflict) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d conflicts, want %d", name, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Key() != w.Key() || g.CDDIdx != w.CDDIdx || g.CDD != w.CDD || !reflect.DeepEqual(g.Hom, w.Hom) ||
			!slices.Equal(g.BaseFacts, w.BaseFacts) || g.Direct != w.Direct ||
			(w.Direct && !slices.Equal(g.Facts, w.Facts)) {
			t.Fatalf("%s: conflict %d = %s (facts %v, direct %v), want %s (facts %v, direct %v)",
				name, i, g, g.Facts, g.Direct, w, w.Facts, w.Direct)
		}
	}
}

// restored requires s to be deeply equal to its pre-call clone and to pass
// the store's invariant check.
func restored(t *testing.T, name string, s, before *store.Store) {
	t.Helper()
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !reflect.DeepEqual(s, before) {
		t.Fatalf("%s: store differs from its pre-call clone", name)
	}
}

// TestAllInPlaceRestoresStoreAndMatchesAll: the in-place scan finds what
// All finds on a clone, in the same order, and leaves the store exactly as
// it was — after a complete scan, after ErrBudget from a derivation cap and
// after ErrBudget from a round cap — at one worker and at four.
func TestAllInPlaceRestoresStoreAndMatchesAll(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	var indirect, derived, budget, rounds int
	for _, w := range []int{1, 4} {
		par.SetWorkers(w)
		for _, e := range scanTable(t) {
			kb := e.kb
			for _, exit := range []struct {
				name string
				opts chase.Options
			}{
				{"complete", chase.Options{}},
				{"derivation cap", chase.Options{MaxDerived: 3}},
				{"round cap", chase.Options{MaxRounds: 1}},
			} {
				name := fmt.Sprintf("%s, workers %d, %s", e.name, w, exit.name)
				before := kb.Facts.Clone()
				want, res, wantErr := conflict.All(kb.Facts, kb.TGDs, kb.CDDs, exit.opts)
				restored(t, name+" (All)", kb.Facts, before)
				got, err := conflict.AllInPlace(kb.Facts, kb.TGDs, kb.CDDs, exit.opts)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) || (err != nil && !errors.Is(err, chase.ErrBudget)) {
					t.Fatalf("%s: AllInPlace error %v, All error %v", name, err, wantErr)
				}
				restored(t, name, kb.Facts, before)
				if err != nil {
					if exit.opts.MaxRounds > 0 {
						rounds++
					} else {
						budget++
					}
					continue
				}
				sameConflicts(t, name, got, want)
				if res.Store.Len() > kb.Facts.Len() {
					derived++
				}
				for _, c := range want {
					if !c.Direct {
						indirect++
					}
				}
			}
		}
	}
	if indirect == 0 || derived == 0 || budget == 0 || rounds == 0 {
		t.Fatalf("table too weak: %d non-direct conflicts, %d chases that derived, %d derivation-cap exits, %d round-cap exits",
			indirect, derived, budget, rounds)
	}
}

// sameTracker requires two trackers to hold the same conflicts, in the
// same order, with the same per-fact sets for every fact of s.
func sameTracker(t *testing.T, name string, got, want *conflict.Tracker, s *store.Store) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: Len %d, want %d", name, got.Len(), want.Len())
	}
	sameConflicts(t, name, got.Conflicts(), want.Conflicts())
	for _, id := range s.IDs() {
		sameConflicts(t, fmt.Sprintf("%s, fact %d", name, id), got.ConflictsOfFact(id), want.ConflictsOfFact(id))
	}
}

// TestNewTrackerOfMatchesNewTracker: a tracker seeded from the direct
// conflicts of a chase-level scan is the tracker NewTracker builds from a
// naive scan — conflicts, order, size and per-fact sets — including on a
// store with a duplicated atom and on a chase that derives a copy of a base
// atom. Seeding with a list that repeats keys keeps the first conflict of
// each key.
func TestNewTrackerOfMatchesNewTracker(t *testing.T) {
	for _, e := range scanTable(t) {
		kb := e.kb
		cs, _, err := conflict.All(kb.Facts, kb.TGDs, kb.CDDs, chase.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := conflict.NewTracker(kb.Facts, kb.CDDs)
		sameTracker(t, e.name, conflict.NewTrackerOf(kb.Facts, kb.CDDs, cs), want, kb.Facts)
		// Every key twice: the first copy of each wins.
		sameTracker(t, e.name+", keys repeated", conflict.NewTrackerOf(kb.Facts, kb.CDDs, append(cs, cs...)), want, kb.Facts)
	}

	// On the duplicated atom, a second conflict with the same key but the
	// other copy's fact: whichever comes first in the seed list is kept.
	kb := dupKB(t)
	cs, _, err := conflict.All(kb.Facts, kb.TGDs, kb.CDDs, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var alt []*conflict.Conflict
	for _, c := range cs {
		facts := slices.Clone(c.Facts)
		for i, f := range facts {
			if f == 0 {
				facts[i] = 1
			}
		}
		base := slices.Clone(facts)
		slices.Sort(base)
		alt = append(alt, &conflict.Conflict{CDD: c.CDD, CDDIdx: c.CDDIdx, Hom: c.Hom, Facts: facts,
			BaseFacts: base, Direct: true})
	}
	if slices.EqualFunc(cs, alt, func(a, b *conflict.Conflict) bool { return slices.Equal(a.Facts, b.Facts) }) {
		t.Fatalf("duplicate-atom scan never used fact 0: %v", cs)
	}
	sameTracker(t, "scan first", conflict.NewTrackerOf(kb.Facts, kb.CDDs, append(slices.Clone(cs), alt...)),
		conflict.NewTrackerOf(kb.Facts, kb.CDDs, cs), kb.Facts)
	sameTracker(t, "alternative first", conflict.NewTrackerOf(kb.Facts, kb.CDDs, append(slices.Clone(alt), cs...)),
		conflict.NewTrackerOf(kb.Facts, kb.CDDs, alt), kb.Facts)
}
