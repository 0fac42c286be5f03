// Package deletion implements the deletion-based repairing baseline the
// paper argues against in §1: resolve inconsistency by removing whole
// facts. Every conflict must lose at least one of its base facts, so a
// deletion repair is a hitting set of the conflict hypergraph; a minimal
// repair is a minimal hitting set.
//
// The package exists to make the paper's motivating comparison executable:
// deletion repairs discard entire atoms (and all their error-free values),
// while update repairs (internal/core) change single positions and can
// keep partial information as labeled nulls. See ExampleInformationLoss in
// the tests and the examples/deletionvsupdate program.
package deletion

import (
	"fmt"
	"sort"

	"kbrepair/internal/conflict"
	"kbrepair/internal/core"
	"kbrepair/internal/logic"
	"kbrepair/internal/store"
)

// Repair is one deletion repair: the facts removed and the surviving store.
type Repair struct {
	// Removed lists the deleted fact ids (ascending).
	Removed []store.FactID
	// Facts is the surviving fact set (re-indexed: fact ids differ from
	// the original store's).
	Facts *store.Store
}

// InformationLoss counts the argument positions discarded by the repair —
// the granularity cost of tuple-level deletion.
func (r *Repair) InformationLoss(original *store.Store) int {
	loss := 0
	for _, id := range r.Removed {
		loss += original.Arity(id)
	}
	return loss
}

// survivors materializes the store left after removing the given facts.
func survivors(s *store.Store, removed map[store.FactID]bool) (*store.Store, error) {
	out := store.New()
	for _, id := range s.IDs() {
		if !removed[id] {
			if _, err := out.Add(s.FactRef(id)); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// GreedyRepair computes a deletion repair by repeatedly removing the fact
// involved in the most remaining conflicts (the classical greedy
// hitting-set heuristic, ln(n)-approximate). The KB must have its conflicts
// resolvable by deletion of base facts, which is always the case since
// removing every conflicting fact is a repair.
func GreedyRepair(kb *core.KB) (*Repair, error) {
	removed := make(map[store.FactID]bool)
	for {
		cs, _, err := currentConflicts(kb, removed)
		if err != nil {
			return nil, err
		}
		if len(cs) == 0 {
			break
		}
		counts := make(map[store.FactID]int)
		for _, c := range cs {
			for _, f := range c.BaseFacts {
				counts[f]++
			}
		}
		best, bestN := store.FactID(-1), -1
		for f, n := range counts {
			if n > bestN || (n == bestN && f < best) {
				best, bestN = f, n
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("deletion: conflicts without base facts")
		}
		removed[best] = true
	}
	return finish(kb, removed)
}

// currentConflicts evaluates the conflicts of the KB restricted to the
// facts not yet removed.
func currentConflicts(kb *core.KB, removed map[store.FactID]bool) ([]*conflict.Conflict, map[store.FactID]store.FactID, error) {
	// Build the survivor store, remembering the id mapping back to the
	// original so conflicts can be reported in original ids.
	sub := store.New()
	back := make(map[store.FactID]store.FactID)
	for _, id := range kb.Facts.IDs() {
		if removed[id] {
			continue
		}
		nid, err := sub.Add(kb.Facts.FactRef(id))
		if err != nil {
			return nil, nil, err
		}
		back[nid] = id
	}
	// sub is private to this call, so the scan chases it in place.
	cs, err := conflict.AllInPlace(sub, kb.Rules, kb.ChaseOpts)
	if err != nil {
		return nil, nil, err
	}
	// Rewrite base facts to original ids.
	for _, c := range cs {
		for i, f := range c.BaseFacts {
			c.BaseFacts[i] = back[f]
		}
	}
	return cs, back, nil
}

func finish(kb *core.KB, removed map[store.FactID]bool) (*Repair, error) {
	facts, err := survivors(kb.Facts, removed)
	if err != nil {
		return nil, err
	}
	ids := make([]store.FactID, 0, len(removed))
	for id := range removed {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return &Repair{Removed: ids, Facts: facts}, nil
}

// MinimalRepairs enumerates all subset-minimal deletion repairs, up to the
// given limit on candidate-set size (the problem is the minimal hitting
// set enumeration, exponential in general). It refuses KBs whose conflict
// base-fact union exceeds maxCandidates.
func MinimalRepairs(kb *core.KB, maxCandidates int) ([]*Repair, error) {
	cs, _, err := kb.AllConflicts()
	if err != nil {
		return nil, err
	}
	if len(cs) == 0 {
		facts, err := survivors(kb.Facts, nil)
		if err != nil {
			return nil, err
		}
		return []*Repair{{Facts: facts}}, nil
	}
	candSet := make(map[store.FactID]bool)
	for _, c := range cs {
		for _, f := range c.BaseFacts {
			candSet[f] = true
		}
	}
	if len(candSet) > maxCandidates {
		return nil, fmt.Errorf("deletion: %d candidate facts exceed limit %d", len(candSet), maxCandidates)
	}
	cands := make([]store.FactID, 0, len(candSet))
	for f := range candSet {
		cands = append(cands, f)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })

	// Enumerate subsets in increasing size; keep those that repair and are
	// not supersets of an already-found repair.
	var repairs []*Repair
	var found []map[store.FactID]bool
	n := len(cands)
	for size := 1; size <= n; size++ {
		idx := make([]int, size)
		for i := range idx {
			idx[i] = i
		}
		for {
			sel := make(map[store.FactID]bool, size)
			for _, i := range idx {
				sel[cands[i]] = true
			}
			if !supersetOfAny(sel, found) {
				ok, err := deletionRepairs(kb, sel)
				if err != nil {
					return nil, err
				}
				if ok {
					found = append(found, sel)
					r, err := finish(kb, sel)
					if err != nil {
						return nil, err
					}
					repairs = append(repairs, r)
				}
			}
			if !nextCombination(idx, n) {
				break
			}
		}
	}
	return repairs, nil
}

func supersetOfAny(sel map[store.FactID]bool, found []map[store.FactID]bool) bool {
	for _, f := range found {
		all := true
		for id := range f {
			if !sel[id] {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

func nextCombination(idx []int, n int) bool {
	k := len(idx)
	for i := k - 1; i >= 0; i-- {
		if idx[i] < n-k+i {
			idx[i]++
			for j := i + 1; j < k; j++ {
				idx[j] = idx[j-1] + 1
			}
			return true
		}
	}
	return false
}

// deletionRepairs reports whether removing exactly the given facts yields a
// consistent KB. The surviving facts go into a fresh store private to this
// call, so the in-place consistency check has exclusive access to it.
func deletionRepairs(kb *core.KB, removed map[store.FactID]bool) (bool, error) {
	facts, err := survivors(kb.Facts, removed)
	if err != nil {
		return false, err
	}
	return kb.WithFacts(facts).IsConsistent()
}

// CompareWithUpdate quantifies the paper's §1 motivation on a concrete KB:
// it produces a greedy deletion repair and a (simulated-user) update
// repair, and reports how many argument values each one lost. Update
// repairs lose exactly one position per fix (and even then may retain the
// information as a labeled null); deletion repairs lose every position of
// every removed fact.
type Comparison struct {
	DeletionRemovedFacts  int
	DeletionLostPositions int
	UpdateChangedValues   int
	UpdateIntroducedNulls int
}

// Compare runs both repairs on clones of the KB.
func Compare(kb *core.KB, fixes core.FixSet) (*Comparison, error) {
	del, err := GreedyRepair(kb.Clone())
	if err != nil {
		return nil, err
	}
	cmp := &Comparison{
		DeletionRemovedFacts:  len(del.Removed),
		DeletionLostPositions: del.InformationLoss(kb.Facts),
		UpdateChangedValues:   len(fixes.Canonical()),
	}
	for _, f := range fixes {
		if f.Value.Kind == logic.Null {
			cmp.UpdateIntroducedNulls++
		}
	}
	return cmp, nil
}
