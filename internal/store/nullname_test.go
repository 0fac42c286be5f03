// External test package: the round-trip check parses labels back, and the
// parser depends on this package.
package store_test

import (
	"fmt"
	"math/rand"
	"testing"

	"kbrepair/internal/logic"
	"kbrepair/internal/parser"
	"kbrepair/internal/store"
)

// hostileNull draws a null whose label imitates one the store would name:
// position-shaped, escaped position-shaped, or chase-coordinate-shaped.
// Small coordinates make collisions with the store's own positions likely.
func hostileNull(r *rand.Rand, facts int) logic.Term {
	f, a := r.Intn(facts+2), r.Intn(4)
	switch r.Intn(4) {
	case 0:
		return logic.N(fmt.Sprintf("f%da%d", f, a))
	case 1:
		return logic.N(fmt.Sprintf("f%da%dc%d", f, a, 1+r.Intn(3)))
	case 2:
		return logic.N(store.CoordNullLabel(1+r.Intn(2), r.Intn(2), r.Intn(3), r.Intn(2)))
	default:
		return logic.N(fmt.Sprintf("n%d", 1+r.Intn(5)))
	}
}

// TestNullForPosHostileLabels: over random stores seeded with labels shaped
// like the store's own, the nulls NullForPos names for the store's
// positions are pairwise distinct, occur nowhere in the store, never meet a
// chase-coordinate null, and survive a round trip through "_:label" syntax.
func TestNullForPosHostileLabels(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := store.New()
		n := 1 + r.Intn(12)
		for i := 0; i < n; i++ {
			args := make([]logic.Term, 1+r.Intn(3))
			for j := range args {
				if r.Intn(3) == 0 {
					args[j] = logic.C(fmt.Sprintf("c%d", r.Intn(3)))
				} else {
					args[j] = hostileNull(r, n)
				}
			}
			s.MustAdd(logic.NewAtom([]string{"p", "q"}[r.Intn(2)], args...))
		}
		named := make(map[logic.Term]store.Position)
		for _, p := range s.Positions() {
			v := s.NullForPos(p)
			if !v.IsNull() {
				t.Fatalf("seed %d: NullForPos(%s) = %v is not a null", seed, p, v)
			}
			if s.OccursAnywhere(v) {
				t.Fatalf("seed %d: NullForPos(%s) = %v already occurs in the store:\n%s", seed, p, v, s)
			}
			if q, dup := named[v]; dup {
				t.Fatalf("seed %d: positions %s and %s share null %v", seed, q, p, v)
			}
			named[v] = p
			doc, err := parser.Parse(fmt.Sprintf("p(%s).", v))
			if err != nil || len(doc.Facts) != 1 || doc.Facts[0].Args[0] != v {
				t.Fatalf("seed %d: %v does not round-trip through parsing (err %v)", seed, v, err)
			}
		}
		for round := 1; round <= 2; round++ {
			for trig := 0; trig < 3; trig++ {
				c := s.NullForCoord(round, 0, trig, 0)
				if q, hit := named[c]; hit {
					t.Fatalf("seed %d: coordinate null %v equals the null of %s", seed, c, q)
				}
			}
		}
	}
}
