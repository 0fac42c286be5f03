package chase

import (
	"fmt"
	"strconv"

	"kbrepair/internal/homo"
	"kbrepair/internal/logic"
	"kbrepair/internal/store"
)

// RunSequentialReference computes the restricted chase with the
// reference engine: triggers collected rule by rule, firing strictly
// sequential in (rule, enumeration) order, invented nulls drawn from a
// private counter. It is kept in a test file — like
// homo.ReferenceForEachSeeded — as the semantics baseline for the engine
// behind Run: differential tests require Run's output to match this one
// fact-for-fact at the same ids, with the same provenance and round
// structure, modulo a bijective renaming of invented nulls
// (store.EqualUpToNullRenaming). Unlike Run it is uninstrumented: no
// metrics, spans or flight events.
func RunSequentialReference(base *store.Store, tgds []*logic.TGD, opts Options) (*Result, error) {
	res := &Result{
		Store:   base.Clone(),
		BaseLen: base.Len(),
		Prov:    make(map[store.FactID]Derivation),
	}
	if len(tgds) == 0 {
		return res, nil
	}
	s := res.Store
	seq := 0
	nextNull := func() logic.Term {
		for {
			seq++
			if t := logic.N("ref" + strconv.Itoa(seq)); !s.OccursAnywhere(t) {
				return t
			}
		}
	}
	rs := NewRules(tgds, nil, s).table
	budget := opts.maxDerived()
	for lo := store.FactID(0); int(lo) < s.Len(); {
		res.Rounds++
		if res.Rounds > opts.maxRounds() {
			return res, fmt.Errorf("%w: more than %d rounds", ErrBudget, opts.maxRounds())
		}
		// All triggers are collected against the round-start snapshot,
		// before any firing — the same discipline as Run's engine,
		// with its collection (a full first round, then pinned delta
		// rounds; TestDeltaCollectionMatchesFilter pins it to the
		// enumerate-then-filter definition), rule by rule.
		perRule := make([][]homo.Match, len(tgds))
		for i := range tgds {
			if lo == 0 {
				perRule[i] = collectAll(s, rs.rules[i].body)
			} else {
				perRule[i] = collectDelta(s, rs.rules[i], delta{lo: lo})
			}
		}
		lo = store.FactID(s.Len())
		for ri, rule := range tgds {
			frontVars := rule.FrontierVars()
			existential := rule.ExistentialVars()
			headPlan := rs.rules[ri].head
			for _, m := range perRule[ri] {
				frontier := m.Subst.Restrict(frontVars)
				// The restricted-chase applicability check against the
				// store as it stands mid-round: firings earlier in the
				// sequential order suppress later triggers whose head
				// they satisfied.
				if headPlan.ExistsSeeded(s, frontier) {
					continue
				}
				if budget-len(res.Prov) < len(rule.Head) {
					return res, ErrBudget
				}
				inst := frontier.Clone()
				for _, z := range existential {
					inst[z] = nextNull()
				}
				for i, h := range rule.Head {
					id, err := s.Add(inst.Apply(h))
					if err != nil {
						return res, fmt.Errorf("chase: firing %s: %w", rule, err)
					}
					res.Prov[id] = Derivation{Rule: rule, Parents: m.Facts, HeadIdx: i}
				}
			}
		}
	}
	return res, nil
}
