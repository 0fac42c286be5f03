package homo

import (
	"slices"

	"kbrepair/internal/logic"
	"kbrepair/internal/store"
)

// BindAtom unifies a body atom pattern against a ground fact, returning the
// induced variable bindings, or false if they are incompatible (a constant
// that differs, a repeated variable meeting two values, or a predicate or
// arity mismatch).
func BindAtom(pattern, fact logic.Atom) (logic.Subst, bool) {
	if pattern.Pred != fact.Pred || len(pattern.Args) != len(fact.Args) {
		return nil, false
	}
	sub := logic.NewSubst()
	for i, pt := range pattern.Args {
		ft := fact.Args[i]
		if pt.IsVar() {
			if cur, ok := sub[pt]; ok {
				if cur != ft {
					return nil, false
				}
				continue
			}
			sub[pt] = ft
			continue
		}
		if pt != ft {
			return nil, false
		}
	}
	return sub, true
}

// PinnedPlan compiles the plan of a pinned search: body minus atom i,
// seed-specialized on atom i's variables, so the orderer costs the rest of
// the body under the bindings BindAtom yields when atom i is pinned onto a
// fact. Searching it with that seed enumerates every homomorphism of body
// that maps atom i onto the fact. stats binds the join order, as in
// CompileOpts.
func PinnedPlan(body []logic.Atom, i int, stats *store.Store) *Plan {
	rest := make([]logic.Atom, 0, len(body)-1)
	rest = append(append(rest, body[:i]...), body[i+1:]...)
	var pre []logic.Term
	for _, arg := range body[i].Args {
		if arg.IsVar() && !slices.Contains(pre, arg) {
			pre = append(pre, arg)
		}
	}
	return CompileWith(rest, CompileOpts{Stats: stats, Prebound: pre})
}
