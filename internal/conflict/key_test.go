package conflict_test

import (
	"fmt"
	"math/rand"
	"testing"

	"kbrepair/internal/conflict"
	"kbrepair/internal/store"
)

// checkKeys requires every conflict's Key to be the bytes of
// fmt.Sprintf("%d|%s", CDDIdx, Hom.Key()) — the tracker orders conflicts
// by key, so PickConflict and every session follow these bytes — and
// returns how many it checked.
func checkKeys(t *testing.T, name string, cs []*conflict.Conflict) int {
	t.Helper()
	for _, c := range cs {
		if want := fmt.Sprintf("%d|%s", c.CDDIdx, c.Hom.Key()); c.Key() != want {
			t.Fatalf("%s: conflict %s has key %q, want %q", name, c, c.Key(), want)
		}
	}
	return len(cs)
}

// TestConflictKeysMatchSubstKey checks the key of every conflict that
// full scans (naive, chase-level, in place), re-scans after value updates
// (RescanInPlace) and tracker updates produce, over the scan table:
// synth KBs without and with TGDs and Durum Wheat v2 among them.
func TestConflictKeysMatchSubstKey(t *testing.T) {
	var scanned, rescanned, tracked int
	for _, e := range scanTable(t) {
		kb := e.kb.Clone()
		s := kb.Facts
		scanned += checkKeys(t, e.name+", naive", conflict.AllNaive(s, kb.Rules))
		all, _, err := conflict.All(s, kb.Rules, kb.ChaseOpts)
		if err != nil {
			t.Fatal(err)
		}
		scanned += checkKeys(t, e.name+", chase", all)
		prev, err := conflict.AllInPlace(s, kb.Rules, kb.ChaseOpts)
		if err != nil {
			t.Fatal(err)
		}
		scanned += checkKeys(t, e.name+", in place", prev)

		reach := conflict.NewReach(kb.TGDs, kb.CDDs)
		tr := conflict.NewTracker(s, kb.Rules)
		rng := rand.New(rand.NewSource(11))
		for step := 0; step < 30; step++ {
			id := store.FactID(rng.Intn(s.Len()))
			pos := store.Position{Fact: id, Arg: rng.Intn(s.Arity(id))}
			// A value from the store makes new joins as often as it breaks
			// old ones; a position null only breaks them.
			val := s.Value(store.Position{Fact: store.FactID(rng.Intn(s.Len())), Arg: 0})
			if rng.Intn(4) == 0 {
				val = s.NullForPos(pos)
			}
			old := s.MustSetValue(pos, val)
			name := fmt.Sprintf("%s, step %d (%s := %s)", e.name, step, pos, val)
			prev, err = conflict.RescanInPlace(s, kb.Rules, kb.ChaseOpts, prev,
				reach.Affected(s.FactRef(id).Pred, old, val))
			if err != nil {
				t.Fatal(err)
			}
			rescanned += checkKeys(t, name+", rescan", prev)
			tr.Update(id)
			tracked += checkKeys(t, name+", tracker", tr.ConflictsOfFact(id))
		}
		checkKeys(t, e.name+", tracker", tr.Conflicts())
	}
	if scanned == 0 || rescanned == 0 || tracked == 0 {
		t.Fatalf("table too weak: %d scanned, %d re-scanned and %d tracker-added conflicts", scanned, rescanned, tracked)
	}
}
