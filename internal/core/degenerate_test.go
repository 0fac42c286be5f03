package core

import (
	"fmt"
	"math/rand"
	"testing"

	"kbrepair/internal/homo"
	"kbrepair/internal/logic"
	"kbrepair/internal/store"
)

// degenerateByHomomorphism is IsDegenerateCDD's definition run literally:
// build the fully anonymized instance (one all-distinct-nulls fact per
// body predicate, at its first atom's arity) and search for a homomorphism
// of the body into it.
func degenerateByHomomorphism(c *logic.CDD) bool {
	anon := store.New()
	added := make(map[string]bool)
	for _, a := range c.Body {
		if !added[a.Pred] {
			added[a.Pred] = true
			anon.MustAdd(logic.NewAtom(a.Pred, anonArgs(anon, a.Arity())...))
		}
	}
	return homo.Compile(c.Body).Exists(anon)
}

// TestIsDegenerateCDDMatchesHomomorphism compares the syntactic check with
// the homomorphism search on random bodies of one to four atoms over three
// predicates, with repeated variables, constants, several atoms of one
// predicate and, unvalidated, atoms of one predicate at two arities.
func TestIsDegenerateCDDMatchesHomomorphism(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	terms := []logic.Term{logic.V("X"), logic.V("Y"), logic.V("Z"), logic.V("W"), logic.C("a")}
	var degenerate, proper int
	for i := 0; i < 3000; i++ {
		body := make([]logic.Atom, 1+r.Intn(4))
		for k := range body {
			args := make([]logic.Term, 1+r.Intn(2))
			if r.Intn(10) == 0 {
				args = append(args, logic.V("X"))
			}
			for j := range args {
				if r.Intn(12) == 0 {
					args[j] = terms[4]
				} else {
					args[j] = terms[r.Intn(4)]
				}
			}
			body[k] = logic.NewAtom(fmt.Sprintf("p%d", r.Intn(3)), args...)
		}
		c := &logic.CDD{Body: body}
		got, want := IsDegenerateCDD(c), degenerateByHomomorphism(c)
		if got != want {
			t.Fatalf("%s: IsDegenerateCDD = %v, homomorphism search says %v", c, got, want)
		}
		if got {
			degenerate++
		} else {
			proper++
		}
	}
	if degenerate == 0 || proper == 0 {
		t.Fatalf("table too weak: %d degenerate, %d proper bodies", degenerate, proper)
	}
}
