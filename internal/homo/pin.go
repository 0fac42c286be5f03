package homo

import (
	"slices"

	"kbrepair/internal/logic"
	"kbrepair/internal/store"
)

// pinArg is one argument position of a pinned atom: a ground term the fact
// must hold there, the first occurrence of a variable, which binds the
// variable's slot, or a repeat of an earlier argument's variable, whose
// value the fact must hold again.
type pinArg struct {
	// term is the ground term to compare, or the variable the argument
	// binds or repeats.
	term logic.Term
	// slot is the variable's slot in the plan (a binding argument).
	slot int
	// same is the earlier argument a repeated variable must equal; -1
	// otherwise.
	same int
}

// Pin is one atom compiled for pinning onto facts: fact-local searches
// (the chase's delta collection, §5's UpdateConflicts) map one body atom
// onto one fact before they search the rest. Matches decides whether the
// atom maps onto a fact from the fact alone, without binding anything, so
// a miss costs no allocation. A PinnedPlan's pin writes its bindings
// straight into the search's slots; a standalone Pin (NewPin) serves a
// one-atom body, whose pinned atom is the whole match. Immutable.
type Pin struct {
	pred string
	args []pinArg
}

// NewPin compiles the atom a for pinning, its variables numbered by first
// occurrence.
func NewPin(a logic.Atom) Pin {
	p := Pin{pred: a.Pred, args: make([]pinArg, len(a.Args))}
	slots := 0
	for j, t := range a.Args {
		p.args[j] = pinArg{term: t, slot: -1, same: -1}
		if !t.IsVar() {
			continue
		}
		if k := slices.Index(a.Args[:j], t); k >= 0 {
			p.args[j].same = k
			continue
		}
		p.args[j].slot = slots
		slots++
	}
	return p
}

// Pred returns the predicate of the pinned atom.
func (p *Pin) Pred() string { return p.pred }

// Matches reports whether the pinned atom maps onto fact: the predicates
// and arities agree, every ground argument equals the fact's, and every
// repeated variable meets one value.
func (p *Pin) Matches(fact logic.Atom) bool {
	if p.pred != fact.Pred || len(p.args) != len(fact.Args) {
		return false
	}
	for j, a := range p.args {
		switch {
		case a.same >= 0:
			if fact.Args[j] != fact.Args[a.same] {
				return false
			}
		case a.slot < 0:
			if fact.Args[j] != a.term {
				return false
			}
		}
	}
	return true
}

// Subst returns the bindings of the pinned atom's variables on fact, which
// it must match (Matches).
func (p *Pin) Subst(fact logic.Atom) logic.Subst {
	sub := make(logic.Subst, len(p.args))
	for j, a := range p.args {
		if a.slot >= 0 {
			sub[a.term] = fact.Args[j]
		}
	}
	return sub
}

// PinnedPlan compiles the plan of a pinned search of body at atom i: the
// body minus atom i, seed-specialized on atom i's variables so the orderer
// costs the rest of the body with them bound, plus atom i as the plan's pin.
// ForEachPinned and ExistsPinned map atom i onto a fact and search the rest,
// enumerating every homomorphism of body that maps atom i onto the fact.
// Atom i's variables that the rest of the body does not mention get slots
// after the join order is fixed, so the order and the kernel are those of
// the rest alone. stats binds the join order, as in CompileOpts.
func PinnedPlan(body []logic.Atom, i int, stats *store.Store) *Plan {
	rest := make([]logic.Atom, 0, len(body)-1)
	rest = append(append(rest, body[:i]...), body[i+1:]...)
	var pre []logic.Term
	for _, arg := range body[i].Args {
		if arg.IsVar() && !slices.Contains(pre, arg) {
			pre = append(pre, arg)
		}
	}
	p := CompileWith(rest, CompileOpts{Stats: stats, Prebound: pre})
	p.pin = NewPin(body[i])
	for j := range p.pin.args {
		a := &p.pin.args[j]
		if a.slot < 0 {
			continue
		}
		if sl, ok := p.slotOf[a.term]; ok {
			a.slot = sl
			continue
		}
		// A slot no atom of the rest mentions: the pin binds it and no
		// search step reads or undoes it, so only materialize sees it.
		a.slot = len(p.vars)
		p.vars = append(p.vars, a.term)
	}
	return p
}

// bindPin binds the plan's pin on fact, which it matches, into the
// executor's slots.
func (e *exec) bindPin(fact logic.Atom) {
	for j, a := range e.p.pin.args {
		if a.slot >= 0 {
			e.bind[a.slot] = fact.Args[j]
			e.set[a.slot] = true
		}
	}
}

// ForEachPinned enumerates the homomorphisms of the pinned plan's body
// (PinnedPlan) that map the pinned atom onto fact, invoking fn for each;
// Match.Facts are the rest of the body's, in body order without the pinned
// atom. It reports whether the pinned atom maps onto fact: on a miss no
// search runs, none is counted and nothing is allocated. The Match passed
// to fn is only valid during the call; clone it to retain it. Returning
// false from fn stops the enumeration.
func (p *Plan) ForEachPinned(s *store.Store, fact logic.Atom, fn func(Match) bool) bool {
	if !p.pin.Matches(fact) {
		return false
	}
	p.searchPinned(s, fact, fn)
	return true
}

// ExistsPinned reports whether a homomorphism of the pinned plan's body
// maps the pinned atom onto fact. No Subst is materialized. When the rest
// of the body is empty the pin is the whole match, and no search runs.
func (p *Plan) ExistsPinned(s *store.Store, fact logic.Atom) bool {
	if !p.pin.Matches(fact) {
		return false
	}
	if len(p.atoms) == 0 {
		return true
	}
	return p.searchPinned(s, fact, nil)
}
