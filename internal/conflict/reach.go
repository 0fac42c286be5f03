package conflict

import (
	"kbrepair/internal/logic"
	"kbrepair/internal/store"
)

// Reach records, per predicate, which CDDs a value update of a base fact
// of that predicate can affect: the CDDs a re-scan after the update must
// search again (RescanInPlace), while every other CDD keeps exactly the
// conflicts of the scan before the update.
//
// A predicate's affected set starts from itself and closes under the TGDs:
// a TGD whose body or head mentions an affected predicate makes each of
// its head predicates affected. The head clause is needed because the
// restricted chase checks a rule's whole head: a(X) → h1(X,Z), h2(X,Z)
// stops firing once another rule derives a matching h1 fact, so h2 changes
// though no TGD body links it to the update. A CDD is affected iff its
// body mentions an affected predicate.
type Reach struct {
	byPred map[string][]bool
	// none is the all-false mask of a predicate no rule mentions.
	none []bool
}

// NewReach builds the table of the rule set: one CDD mask per predicate,
// computed once, so an update costs a map lookup.
func NewReach(tgds []*logic.TGD, cdds []*logic.CDD) *Reach {
	// Predicates get dense ids; mentions[p] lists the TGDs whose body or
	// head mentions predicate p, heads[t] the head predicates of TGD t, and
	// cddsOf[p] the CDDs whose body mentions p.
	ids := make(map[string]int)
	var mentions, cddsOf [][]int
	pred := func(name string) int {
		p, ok := ids[name]
		if !ok {
			p = len(ids)
			ids[name] = p
			mentions = append(mentions, nil)
			cddsOf = append(cddsOf, nil)
		}
		return p
	}
	heads := make([][]int, len(tgds))
	for t, tgd := range tgds {
		for _, atoms := range [][]logic.Atom{tgd.Body, tgd.Head} {
			for _, a := range atoms {
				if p := pred(a.Pred); len(mentions[p]) == 0 || mentions[p][len(mentions[p])-1] != t {
					mentions[p] = append(mentions[p], t)
				}
			}
		}
		for _, a := range tgd.Head {
			heads[t] = append(heads[t], ids[a.Pred])
		}
	}
	for i, c := range cdds {
		for _, a := range c.Body {
			p := pred(a.Pred)
			cddsOf[p] = append(cddsOf[p], i)
		}
	}
	// One breadth-first search per predicate over predicates and TGDs,
	// each visited once, into one backing array of masks.
	n := len(cdds)
	masks := make([]bool, (len(ids)+1)*n)
	r := &Reach{byPred: make(map[string][]bool, len(ids)), none: masks[len(ids)*n:]}
	seenP, seenT := make([]bool, len(ids)), make([]bool, len(tgds))
	queue := make([]int, 0, len(ids))
	for name, p := range ids {
		mask := masks[p*n : (p+1)*n : (p+1)*n]
		clear(seenP)
		clear(seenT)
		seenP[p] = true
		queue = append(queue[:0], p)
		for k := 0; k < len(queue); k++ {
			q := queue[k]
			for _, i := range cddsOf[q] {
				mask[i] = true
			}
			for _, t := range mentions[q] {
				if seenT[t] {
					continue
				}
				seenT[t] = true
				for _, h := range heads[t] {
					if !seenP[h] {
						seenP[h] = true
						queue = append(queue, h)
					}
				}
			}
		}
		r.byPred[name] = mask
	}
	return r
}

// Affected returns the CDD mask (indexed like the rule set's CDDs; shared,
// so read-only) of an update of a fact of pred from old to new. It returns
// nil, meaning every CDD, when either value has the shape of a
// chase-invented null (store.IsCoordNull): the chase escapes the labels it
// invents against the store's contents, so such a value can rename a null
// that any rule invents.
func (r *Reach) Affected(pred string, old, new logic.Term) []bool {
	if store.IsCoordNull(old) || store.IsCoordNull(new) {
		return nil
	}
	if m, ok := r.byPred[pred]; ok {
		return m
	}
	return r.none
}
