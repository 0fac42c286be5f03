package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"kbrepair/internal/logic"
)

// truncTerm draws a value for a truncation test store: a constant, or a
// null whose label imitates one the store would name — position-shaped,
// escaped position-shaped or chase-coordinate-shaped — so appended facts
// share index keys, domain entries and value counts with the base.
func truncTerm(r *rand.Rand, facts int) logic.Term {
	f, a := r.Intn(facts+2), r.Intn(3)
	switch r.Intn(5) {
	case 0:
		return logic.N(fmt.Sprintf("f%da%d", f, a))
	case 1:
		return logic.N(fmt.Sprintf("f%da%dc%d", f, a, 1+r.Intn(3)))
	case 2:
		return logic.N(CoordNullLabel(1+r.Intn(2), r.Intn(2), r.Intn(3), r.Intn(2)))
	default:
		return logic.C(fmt.Sprintf("c%d", r.Intn(4)))
	}
}

func truncAtom(r *rand.Rand, facts int) logic.Atom {
	pred := []string{"p", "q", "r"}[r.Intn(3)]
	args := make([]logic.Term, 1+r.Intn(3))
	if pred == "r" {
		args = args[:0] // zero-arity facts, like the chase's ⊥
	}
	for j := range args {
		args[j] = truncTerm(r, facts)
	}
	return logic.NewAtom(pred, args...)
}

// TestTruncateRestoresIndexes: over random stores, appending a batch (or
// single facts) and truncating back leaves every index — byPred, index,
// byKey, adom, vals — deeply equal to a clone taken before, with list order
// intact, so an append/Truncate pair is invisible to homomorphism search.
func TestTruncateRestoresIndexes(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := New()
		n := r.Intn(15)
		for i := 0; i < n; i++ {
			s.MustAdd(truncAtom(r, n))
		}
		// Some in-place updates first, so index lists are not in id order.
		for i := 0; i < n/2; i++ {
			id := FactID(r.Intn(n))
			if s.Arity(id) > 0 {
				s.MustSetValue(Position{Fact: id, Arg: r.Intn(s.Arity(id))}, truncTerm(r, n))
			}
		}
		before := s.Clone()
		for k := 0; k < 1+r.Intn(3); k++ {
			batch := make([]logic.Atom, r.Intn(6))
			for i := range batch {
				batch[i] = truncAtom(r, n)
			}
			if r.Intn(2) == 0 {
				if _, err := s.AddBatch(batch); err != nil {
					t.Fatal(err)
				}
			} else {
				for _, a := range batch {
					s.MustAdd(a)
				}
			}
		}
		s.Truncate(n)
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !s.Equal(before) {
			t.Fatalf("seed %d: facts differ after Truncate:\n%s\nwant\n%s", seed, s, before)
		}
		for name, pair := range map[string][2]any{
			"byPred": {s.byPred, before.byPred},
			"index":  {s.index, before.index},
			"byKey":  {s.byKey, before.byKey},
			"adom":   {s.adom, before.adom},
			"vals":   {s.vals, before.vals},
		} {
			if !reflect.DeepEqual(pair[0], pair[1]) {
				t.Fatalf("seed %d: %s differs after Truncate:\n got %v\nwant %v", seed, name, pair[0], pair[1])
			}
		}
	}
}

func TestTruncateBounds(t *testing.T) {
	s := medStore(t)
	s.Truncate(10) // beyond Len: no-op
	if s.Len() != 3 {
		t.Fatalf("Len = %d after Truncate past the end, want 3", s.Len())
	}
	s.Truncate(-1)
	if s.Len() != 0 || len(s.byPred) != 0 || len(s.index) != 0 || len(s.adom) != 0 || len(s.vals) != 0 || len(s.byKey) != 0 {
		t.Fatalf("Truncate(-1) left %d facts or index entries behind", s.Len())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
