package homo

import (
	"kbrepair/internal/logic"
	"kbrepair/internal/store"
)

// ReferenceForEachSeeded is the original map-based backtracking executor
// with per-node least-candidates ordering, kept verbatim (minus
// instrumentation) as the oracle for differential tests of the compiled
// plan engine: it must enumerate the same match set as Plan.ForEachSeeded.
// It lives in a test file so production binaries do not carry it, and is
// exported because the synth-workload differential test is in the external
// test package (internal/synth depends on this package via core and chase).
func ReferenceForEachSeeded(s *store.Store, body []logic.Atom, seed logic.Subst, fn func(Match) bool) {
	if len(body) == 0 {
		sub := seed
		if sub == nil {
			sub = logic.NewSubst()
		}
		fn(Match{Subst: sub, Facts: nil})
		return
	}
	st := &refSearch{
		store: s,
		body:  body,
		sub:   logic.NewSubst(),
		facts: make([]store.FactID, len(body)),
		done:  make([]bool, len(body)),
		fn:    fn,
	}
	for v, t := range seed {
		st.sub[v] = t
	}
	st.run(0)
}

type refSearch struct {
	store   *store.Store
	body    []logic.Atom
	sub     logic.Subst
	facts   []store.FactID
	done    []bool
	fn      func(Match) bool
	stopped bool
	nodes   int64 // backtrack nodes visited (run invocations)
	probes  int64 // store index consultations
}

// run matches the remaining len(body)-depth atoms; returns after exploring
// the subtree (st.stopped set when fn asked to stop).
func (st *refSearch) run(depth int) {
	if st.stopped {
		return
	}
	st.nodes++
	if depth == len(st.body) {
		if !st.fn(Match{Subst: st.sub, Facts: st.facts}) {
			st.stopped = true
		}
		return
	}
	idx, cands := st.pickAtom()
	st.done[idx] = true
	pattern := st.body[idx]
	for _, fid := range cands {
		fact := st.store.FactRef(fid)
		bound, ok := st.bind(pattern, fact)
		if ok {
			st.facts[idx] = fid
			st.run(depth + 1)
		}
		// Undo bindings introduced by this atom.
		for _, v := range bound {
			delete(st.sub, v)
		}
		if st.stopped {
			break
		}
	}
	st.done[idx] = false
}

// pickAtom selects the unmatched atom with the fewest candidate facts under
// the current substitution and returns its index along with the candidates.
func (st *refSearch) pickAtom() (int, []store.FactID) {
	bestIdx := -1
	var bestCands []store.FactID
	bestCount := int(^uint(0) >> 1)
	for i, a := range st.body {
		if st.done[i] {
			continue
		}
		cands := st.candidates(a)
		if len(cands) < bestCount {
			bestIdx, bestCands, bestCount = i, cands, len(cands)
			if bestCount == 0 {
				break
			}
		}
	}
	return bestIdx, bestCands
}

// candidates returns the most selective index list for the pattern under the
// current substitution. The returned slice belongs to the store's index and
// must not be mutated.
func (st *refSearch) candidates(a logic.Atom) []store.FactID {
	st.probes++
	best := st.store.CandidatesByPred(a.Pred)
	for i, t := range a.Args {
		g := st.sub.Lookup(t)
		if !g.IsGround() {
			continue
		}
		st.probes++
		c := st.store.Candidates(a.Pred, i, g)
		if len(c) < len(best) {
			best = c
		}
	}
	return best
}

// bind attempts to extend the substitution so pattern maps onto fact. It
// returns the variables newly bound (for undo) and whether it succeeded.
// On failure the newly introduced bindings are already removed.
func (st *refSearch) bind(pattern, fact logic.Atom) ([]logic.Term, bool) {
	if pattern.Pred != fact.Pred || len(pattern.Args) != len(fact.Args) {
		return nil, false
	}
	var bound []logic.Term
	for i, t := range pattern.Args {
		ft := fact.Args[i]
		if t.IsVar() {
			if cur, ok := st.sub[t]; ok {
				if cur != ft {
					for _, v := range bound {
						delete(st.sub, v)
					}
					return nil, false
				}
				continue
			}
			st.sub[t] = ft
			bound = append(bound, t)
			continue
		}
		if t != ft {
			for _, v := range bound {
				delete(st.sub, v)
			}
			return nil, false
		}
	}
	return bound, true
}
