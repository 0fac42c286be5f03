package conflict

import (
	"fmt"
	"math/rand"
	"testing"

	"kbrepair/internal/chase"
	"kbrepair/internal/logic"
	"kbrepair/internal/par"
	"kbrepair/internal/store"
)

// randomConflictKB builds a synthetic store plus CDD set with plenty of
// overlapping violations, so parallel detection has real fan-out.
func randomConflictKB(t testing.TB, seed int64, facts, cdds int) (*store.Store, []*logic.CDD) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	consts := make([]logic.Term, 6)
	for i := range consts {
		consts[i] = logic.C(fmt.Sprintf("c%d", i))
	}
	s := store.New()
	for i := 0; i < facts; i++ {
		pred := fmt.Sprintf("p%d", r.Intn(4))
		s.MustAdd(logic.NewAtom(pred, consts[r.Intn(6)], consts[r.Intn(6)]))
	}
	var out []*logic.CDD
	for i := 0; i < cdds; i++ {
		a := fmt.Sprintf("p%d", r.Intn(4))
		b := fmt.Sprintf("p%d", r.Intn(4))
		out = append(out, logic.MustCDD([]logic.Atom{
			logic.NewAtom(a, logic.V("X"), logic.V("Y")),
			logic.NewAtom(b, logic.V("Y"), logic.V("Z")),
		}))
	}
	return s, out
}

// conflictKeys canonicalizes a conflict slice, preserving order.
func conflictKeys(cs []*Conflict) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = fmt.Sprintf("%s|%v|%v|%v", c.Key(), c.Facts, c.BaseFacts, c.Direct)
	}
	return out
}

func withWorkers(t *testing.T, n int) {
	t.Helper()
	par.SetWorkers(n)
	t.Cleanup(func() { par.SetWorkers(0) })
}

// TestAllNaiveDeterministicAcrossWorkers asserts the core merge contract
// of parallel detection: the conflict list — contents *and* order — is
// identical for every worker count.
func TestAllNaiveDeterministicAcrossWorkers(t *testing.T) {
	s, cdds := randomConflictKB(t, 7, 60, 12)
	rs := chase.NewRules(nil, cdds, s)
	withWorkers(t, 1)
	want := conflictKeys(AllNaive(s, rs))
	if len(want) == 0 {
		t.Fatal("workload has no conflicts; test would be vacuous")
	}
	for _, w := range []int{2, 8} {
		par.SetWorkers(w)
		got := conflictKeys(AllNaive(s, rs))
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d conflicts, want %d", w, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: conflict %d = %q, want %q", w, i, got[i], want[i])
			}
		}
	}
}

// TestAllDeterministicAcrossWorkers does the same for chase-level
// detection, where the parallel scans additionally share the chase
// result's memoized base-support cache.
func TestAllDeterministicAcrossWorkers(t *testing.T) {
	s, tgds, cdds := fig1bKB(t)
	rs := chase.NewRules(tgds, cdds, s)
	withWorkers(t, 1)
	base, _, err := All(s, rs, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := conflictKeys(base)
	if len(want) == 0 {
		t.Fatal("no chase-level conflicts; test would be vacuous")
	}
	for _, w := range []int{2, 8} {
		par.SetWorkers(w)
		cs, _, err := All(s, rs, chase.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := conflictKeys(cs)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d conflicts, want %d", w, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: conflict %d = %q, want %q", w, i, got[i], want[i])
			}
		}
	}
}

// TestTrackerUpdateDeterministicAcrossWorkers drives the incremental
// tracker through a sequence of store updates at different worker counts
// and asserts the maintained conflict set stays identical.
func TestTrackerUpdateDeterministicAcrossWorkers(t *testing.T) {
	run := func(w int) []string {
		par.SetWorkers(w)
		s, cdds := randomConflictKB(t, 11, 40, 8)
		tr := NewTracker(s, chase.NewRules(nil, cdds, s))
		r := rand.New(rand.NewSource(3))
		consts := []logic.Term{logic.C("c0"), logic.C("c1"), logic.C("u")}
		for i := 0; i < 10; i++ {
			id := store.FactID(r.Intn(s.Len()))
			s.MustSetValue(store.Position{Fact: id, Arg: r.Intn(2)}, consts[r.Intn(3)])
			tr.Update(id)
		}
		return conflictKeys(tr.Conflicts())
	}
	withWorkers(t, 1)
	want := run(1)
	for _, w := range []int{2, 8} {
		got := run(w)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d conflicts, want %d", w, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: conflict %d = %q, want %q", w, i, got[i], want[i])
			}
		}
	}
}

// BenchmarkTrackerConflicts pins the sortStrings → sort.Strings fix: the
// deterministic ordering of Tracker.Conflicts runs on every question via
// PositionRanks, and the previous hand-rolled insertion sort made it
// quadratic in the conflict count.
func BenchmarkTrackerConflicts(b *testing.B) {
	s, cdds := randomConflictKB(b, 5, 400, 16)
	tr := NewTracker(s, chase.NewRules(nil, cdds, s))
	if tr.Len() < 100 {
		b.Fatalf("only %d conflicts; benchmark needs a large set", tr.Len())
	}
	b.ReportMetric(float64(tr.Len()), "conflicts")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cs := tr.Conflicts(); len(cs) != tr.Len() {
			b.Fatal("wrong length")
		}
	}
}

// BenchmarkAllNaive measures one full detection scan — the unit the
// worker pool fans out per CDD.
func BenchmarkAllNaive(b *testing.B) {
	s, cdds := randomConflictKB(b, 5, 400, 16)
	rs := chase.NewRules(nil, cdds, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cs := AllNaive(s, rs); len(cs) == 0 {
			b.Fatal("no conflicts")
		}
	}
}
