package conflict

import (
	"slices"
	"sort"
	"strings"

	"kbrepair/internal/chase"
	"kbrepair/internal/homo"
	"kbrepair/internal/obs"
	"kbrepair/internal/obs/flight"
	"kbrepair/internal/store"
)

// Tracker maintains the set of naive conflicts of a mutable store under
// position updates — the UpdateConflicts optimization of §5. Instead of
// re-evaluating every CDD after each fix, it removes the conflicts touching
// the updated fact and re-evaluates only the CDDs whose bodies can map an
// atom onto the updated fact.
type Tracker struct {
	base *store.Store
	// rs holds the pinned-atom plans Update re-evaluates with.
	rs        *chase.Rules
	conflicts map[string]*Conflict
	byFact    map[store.FactID]map[string]bool
	// ordered/orderedKeys hold the live conflicts sorted by key: filled by
	// one sort at construction, then maintained by binary-search insertion
	// and removal — the keyed merge that replaced re-sorting the whole set
	// on every Conflicts call. Keys are kept parallel to the conflicts.
	ordered     []*Conflict
	orderedKeys []string
	// degrees holds the vertex degrees of the conflict hypergraph (see
	// PositionRanks) once Degrees has built it; index and remove keep it
	// current from then on. Nil until asked for, so sessions whose strategy
	// never ranks positions pay nothing for it.
	degrees map[store.Position]int
	// posBuf is the scratch slice a conflict's ranked positions are
	// computed into.
	posBuf []store.Position
}

// NewTracker computes the initial naive conflicts of the store and prepares
// the incremental indexes. The tracker observes — but does not own — the
// store: callers mutate it through store.SetValue and then call Update with
// the affected fact.
func NewTracker(base *store.Store, rs *chase.Rules) *Tracker {
	return NewTrackerUnder(0, base, rs)
}

// NewTrackerUnder is NewTracker with the initial conflict scan's trace span
// parented under the given span id (0 for a root).
func NewTrackerUnder(parent uint64, base *store.Store, rs *chase.Rules) *Tracker {
	t := newTracker(base, rs)
	t.fill(AllNaiveUnder(parent, base, rs))
	return t
}

// NewTrackerOf builds the tracker from a chase-level scan of base that the
// caller has already made (AllInPlace or All on base, under the same rules),
// instead of scanning base again: its direct conflicts are exactly the
// naive conflicts NewTracker would find.
//
// A naive conflict is a homomorphism h from body(N) into F. F is part of
// the chase, so the chase-level scan finds h with every body atom on a
// base fact — a direct conflict — and a direct conflict is, conversely, a
// homomorphism into F. Both scans name it by the same CDD index and h, so
// they agree on its key, its Facts (base ids, which the chase leaves in
// place), its BaseFacts (the deduplicated Facts: a base fact supports only
// itself) and Direct. A rule with several head atoms can derive a copy of
// a base atom, so the chase-level scan may meet h on derived facts too.
// Each scan keeps the first match of an h, and a search reads index
// lists in which every base fact precedes every derived one, so that first
// match lies on base facts: filtering on Direct loses no naive conflict.
// When F holds one atom twice, the two scans keep the same copy as long as
// their searches read the same index lists, as they do on a store whose
// lists are in fact-id order (no value set since it was built). Otherwise a
// search may pick a different list, now that the chase has lengthened
// some, and keep the other copy.
func NewTrackerOf(base *store.Store, rs *chase.Rules, scanned []*Conflict) *Tracker {
	t := newTracker(base, rs)
	t.fill(Direct(scanned))
	return t
}

// Direct returns the direct conflicts of cs, in order, in a new slice. Of a
// chase-level scan of F these are the naive conflicts of F (see
// NewTrackerOf).
func Direct(cs []*Conflict) []*Conflict {
	out := make([]*Conflict, 0, len(cs))
	for _, c := range cs {
		if c.Direct {
			out = append(out, c)
		}
	}
	return out
}

func newTracker(base *store.Store, rs *chase.Rules) *Tracker {
	return &Tracker{
		base:      base,
		rs:        rs,
		conflicts: make(map[string]*Conflict),
		byFact:    make(map[store.FactID]map[string]bool),
	}
}

// fill loads the initial conflicts of an empty tracker with one stable
// sort by key, keeping the first conflict of each key — what adding them
// one by one in order would keep, without a slice shift per insertion. It
// takes cs over: the sort reorders it and the tracker keeps its storage.
func (t *Tracker) fill(cs []*Conflict) {
	slices.SortStableFunc(cs, func(a, b *Conflict) int { return strings.Compare(a.Key(), b.Key()) })
	t.ordered = cs[:0]
	t.orderedKeys = make([]string, 0, len(cs))
	for _, c := range cs {
		k := c.Key()
		if n := len(t.orderedKeys); n > 0 && t.orderedKeys[n-1] == k {
			continue
		}
		t.ordered = append(t.ordered, c)
		t.orderedKeys = append(t.orderedKeys, k)
		t.index(k, c)
	}
	mEdgeAdd.Add(int64(len(t.ordered)))
}

// add inserts c, whose key k is new to the tracker.
func (t *Tracker) add(k string, c *Conflict) {
	mEdgeAdd.Inc()
	i := sort.SearchStrings(t.orderedKeys, k)
	t.orderedKeys = slices.Insert(t.orderedKeys, i, k)
	t.ordered = slices.Insert(t.ordered, i, c)
	t.index(k, c)
}

// index records c under key k in the key map and the per-fact sets.
func (t *Tracker) index(k string, c *Conflict) {
	t.conflicts[k] = c
	for _, f := range c.BaseFacts {
		m := t.byFact[f]
		if m == nil {
			m = make(map[string]bool)
			t.byFact[f] = m
		}
		m[k] = true
	}
	if t.degrees != nil {
		t.count(c, 1)
	}
}

// count adds c's hyperedge to the degree table (d = 1) or takes it out
// (d = -1): every position c is ranked on gains or loses one, and a
// position left at zero is deleted.
func (t *Tracker) count(c *Conflict, d int) {
	t.posBuf = c.rankedPositions(t.posBuf, t.base)
	for _, p := range t.posBuf {
		switch {
		case d > 0:
			t.degrees[p]++
		case t.degrees[p] > 1:
			t.degrees[p]--
		default:
			delete(t.degrees, p)
		}
	}
}

// Degrees returns the vertex degrees of the tracker's conflict hypergraph:
// for every position some live conflict is ranked on, the number of live
// conflicts ranked on it — what PositionRanks(t.Conflicts(), base)
// returns. The first call builds the table in one pass over the live
// conflicts; Update maintains it from then on, adjusting only the
// positions of the conflicts it removes and adds. The map is the tracker's
// own: callers read it and do not keep it past the next Update.
func (t *Tracker) Degrees() map[store.Position]int {
	if t.degrees == nil {
		// A direct conflict is ranked on about one join position per fact,
		// and conflicts overlap, so the facts in conflicts size the table.
		t.degrees = make(map[store.Position]int, len(t.byFact))
		for _, c := range t.ordered {
			t.count(c, 1)
		}
	}
	return t.degrees
}

func (t *Tracker) remove(key string) {
	c, ok := t.conflicts[key]
	if !ok {
		return
	}
	mEdgeDel.Inc()
	delete(t.conflicts, key)
	if i := sort.SearchStrings(t.orderedKeys, key); i < len(t.orderedKeys) && t.orderedKeys[i] == key {
		t.orderedKeys = append(t.orderedKeys[:i], t.orderedKeys[i+1:]...)
		t.ordered = append(t.ordered[:i], t.ordered[i+1:]...)
	}
	for _, f := range c.BaseFacts {
		if m := t.byFact[f]; m != nil {
			delete(m, key)
			if len(m) == 0 {
				delete(t.byFact, f)
			}
		}
	}
	if t.degrees != nil {
		t.count(c, -1)
	}
}

// Update re-synchronizes the conflict set after the fact with the given id
// has been modified in the underlying store. Per §5: conflicts related to
// the fact are dropped, then every CDD related to the fact's (new) atom is
// re-evaluated with one body atom pinned onto the fact, and the conflicts
// found are added in (CDD, body atom) order.
func (t *Tracker) Update(id store.FactID) {
	t.UpdateUnder(0, id)
}

// UpdateUnder is Update with the trace span parented under the given span
// id — the inquiry engine attributes each incremental re-sync to the
// question whose answer caused it.
func (t *Tracker) UpdateUnder(parent uint64, id store.FactID) {
	mUpdates.Inc()
	tm := obs.StartTimer()
	defer mUpdateTime.Since(tm)
	var sp obs.Span
	if obs.Tracing() {
		sp = obs.StartSpanUnder(parent, "conflict.tracker_update", obs.Int("fact", int(id)))
	}
	removed := int64(len(t.byFact[id]))
	for k := range t.byFact[id] {
		t.remove(k)
	}
	var added int64
	// Pin each body atom over the fact's predicate onto the updated fact,
	// then search the remaining atoms. One callback serves every pinned
	// search, so a body atom that does not map onto the fact costs nothing.
	fact := t.base.FactRef(id)
	var ci, ai int
	found := func(m homo.Match) bool {
		added++
		rule := t.rs.CDD[ci]
		key := conflictKey(rule, ci, m.Subst)
		if _, dup := t.conflicts[key]; dup {
			return true
		}
		facts := make([]store.FactID, 0, len(rule.CDD.Body))
		facts = append(append(append(facts, m.Facts[:ai]...), id), m.Facts[ai:]...)
		t.add(key, newConflict(rule, ci, key, m.Subst.Clone(), facts, dedupIDs(facts), true))
		return true
	}
	t.rs.EachPinned(fact, func(c, a int) bool {
		ci, ai = c, a
		if t.rs.CDD[ci].Pinned[ai].ForEachPinned(t.base, fact, found) {
			attrPinned.Add(t.rs.CDD[ci].AID, 1)
		}
		return true
	})
	flight.Record(flight.KindTrackerUpdate, int64(id), removed, added, 0)
	if sp.Live() {
		sp.End(obs.Int64("removed", removed), obs.Int64("added", added))
	}
}

// Len returns the current number of conflicts.
func (t *Tracker) Len() int { return len(t.conflicts) }

// Conflicts returns the current conflicts in a deterministic order (sorted
// by key). The order is maintained incrementally, so each call is a copy,
// not a re-sort: strategies call this after every answer, and on large
// hypergraphs the repeated O(n log n) sort used to dominate update time.
func (t *Tracker) Conflicts() []*Conflict {
	return append([]*Conflict(nil), t.ordered...)
}

// ConflictsOfFact returns the conflicts involving the given base fact.
func (t *Tracker) ConflictsOfFact(id store.FactID) []*Conflict {
	keys := make([]string, 0, len(t.byFact[id]))
	for k := range t.byFact[id] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Conflict, len(keys))
	for i, k := range keys {
		out[i] = t.conflicts[k]
	}
	return out
}

// PositionRanks computes per-position conflict membership counts for an
// arbitrary conflict set: the vertex degrees of the conflict hypergraph
// used by opti-mcd. Opti-mcd is an improvement over opti-join (§5), so for
// direct conflicts only the join positions are ranked — changing a
// non-join position can never resolve the conflict, and ranking it would
// steer the strategy toward wasted questions. Chase-level conflicts fall
// back to all base-support positions, as in GenerateQuestion-Chase. A
// tracker keeps the same counts for its own conflicts (Tracker.Degrees).
func PositionRanks(conflicts []*Conflict, s *store.Store) map[store.Position]int {
	ranks := make(map[store.Position]int)
	var buf []store.Position
	for _, c := range conflicts {
		buf = c.rankedPositions(buf, s)
		for _, p := range buf {
			ranks[p]++
		}
	}
	return ranks
}
