package conflict

import (
	"fmt"
	"sort"
	"testing"

	"kbrepair/internal/chase"
	"kbrepair/internal/logic"
	"kbrepair/internal/store"
)

// mergeFixture builds a store with n independent direct conflicts under one
// two-atom CDD: p(a_i, b_i) joined by q(b_i, a_i). Each fact participates in
// exactly one conflict, so tracker updates churn single hyperedges.
func mergeFixture(tb testing.TB, n int) (*store.Store, []*logic.CDD) {
	tb.Helper()
	s := store.New()
	for i := 0; i < n; i++ {
		s.MustAdd(logic.NewAtom("p", logic.C(fmt.Sprintf("a%d", i)), logic.C(fmt.Sprintf("b%d", i))))
		s.MustAdd(logic.NewAtom("q", logic.C(fmt.Sprintf("b%d", i)), logic.C(fmt.Sprintf("a%d", i))))
	}
	cdds := []*logic.CDD{logic.MustCDD([]logic.Atom{
		logic.NewAtom("p", logic.V("X"), logic.V("Y")),
		logic.NewAtom("q", logic.V("Y"), logic.V("X")),
	})}
	return s, cdds
}

// TestTrackerOrderedInvariant churns the tracker through removals and
// re-additions and checks the incrementally maintained order stays exactly
// the sorted-by-key view of the conflict map after every step — starting
// from each bulk fill: NewTracker's naive scan, and NewTrackerOf seeded
// from a chase-level scan whose conflicts come in twice.
func TestTrackerOrderedInvariant(t *testing.T) {
	for _, seed := range []string{"naive scan", "chase-level scan, keys repeated"} {
		s, cdds := mergeFixture(t, 40)
		rs := chase.NewRules(nil, cdds, s)
		var tr *Tracker
		if seed == "naive scan" {
			tr = NewTracker(s, rs)
		} else {
			cs, _, err := All(s, rs, chase.Options{})
			if err != nil {
				t.Fatal(err)
			}
			tr = NewTrackerOf(s, rs, append(cs, cs...))
		}
		if tr.Len() != 40 {
			t.Fatalf("%s: initial conflicts = %d, want 40", seed, tr.Len())
		}
		check := func(step string) {
			t.Helper()
			wantKeys := make([]string, 0, len(tr.conflicts))
			for k := range tr.conflicts {
				wantKeys = append(wantKeys, k)
			}
			sort.Strings(wantKeys)
			cs := tr.Conflicts()
			if len(cs) != len(wantKeys) || len(tr.orderedKeys) != len(wantKeys) {
				t.Fatalf("%s, %s: Conflicts() len %d, orderedKeys len %d, map len %d",
					seed, step, len(cs), len(tr.orderedKeys), len(wantKeys))
			}
			for i, c := range cs {
				if c.Key() != wantKeys[i] {
					t.Fatalf("%s, %s: ordered[%d] = %s, want %s", seed, step, i, c.Key(), wantKeys[i])
				}
				if tr.orderedKeys[i] != wantKeys[i] {
					t.Fatalf("%s, %s: orderedKeys[%d] = %s, want %s", seed, step, i, tr.orderedKeys[i], wantKeys[i])
				}
				for _, f := range c.BaseFacts {
					if !tr.byFact[f][wantKeys[i]] {
						t.Fatalf("%s, %s: fact %d does not list conflict %s", seed, step, f, wantKeys[i])
					}
				}
			}
		}
		check("initial")
		// Break conflicts by retargeting p facts (even ids), then restore them.
		for i := 0; i < 40; i += 3 {
			id := store.FactID(2 * i)
			old := s.MustSetValue(store.Position{Fact: id, Arg: 1}, logic.C("nowhere"))
			tr.Update(id)
			check(fmt.Sprintf("break %d", i))
			s.MustSetValue(store.Position{Fact: id, Arg: 1}, old)
			tr.Update(id)
			check(fmt.Sprintf("restore %d", i))
		}
		if tr.Len() != 40 {
			t.Fatalf("%s: after churn conflicts = %d, want 40", seed, tr.Len())
		}
	}
}

// TestTrackerConflictsAllocGuard pins the keyed merge's point: reading the
// conflict set costs one copy, not a re-sort — a single allocation per call
// regardless of how much the tracker has churned.
func TestTrackerConflictsAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful without -race")
	}
	s, cdds := mergeFixture(t, 100)
	tr := NewTracker(s, chase.NewRules(nil, cdds, s))
	for i := 0; i < 100; i += 7 {
		id := store.FactID(2 * i)
		old := s.MustSetValue(store.Position{Fact: id, Arg: 1}, logic.C("nowhere"))
		tr.Update(id)
		s.MustSetValue(store.Position{Fact: id, Arg: 1}, old)
		tr.Update(id)
	}
	if n := testing.AllocsPerRun(100, func() { tr.Conflicts() }); n > 1 {
		t.Errorf("Conflicts() allocates %v allocs/op, want <= 1 (single copy, no re-sort)", n)
	}
}

// BenchmarkTrackerMerge is the satellite's time/allocation guard for the
// keyed hyperedge merge: one full update cycle — break a conflict, restore
// it, read the ordered set — on a tracker holding n live conflicts. The
// pre-keyed-merge implementation re-sorted all n conflicts inside every
// Conflicts() call, which showed up here as O(n log n) time and n-sized
// allocations per op.
func BenchmarkTrackerMerge(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("conflicts%d", n), func(b *testing.B) {
			s, cdds := mergeFixture(b, n)
			tr := NewTracker(s, chase.NewRules(nil, cdds, s))
			pos := store.Position{Fact: 0, Arg: 1}
			orig := s.Value(pos)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.MustSetValue(pos, logic.C("nowhere"))
				tr.Update(0)
				s.MustSetValue(pos, orig)
				tr.Update(0)
				if cs := tr.Conflicts(); len(cs) != n {
					b.Fatalf("conflicts = %d, want %d", len(cs), n)
				}
			}
		})
	}
}
