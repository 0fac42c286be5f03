package conflict

import (
	"sort"

	"kbrepair/internal/homo"
	"kbrepair/internal/logic"
	"kbrepair/internal/obs"
	"kbrepair/internal/obs/attr"
	"kbrepair/internal/obs/flight"
	"kbrepair/internal/par"
	"kbrepair/internal/store"
)

// Tracker maintains the set of naive conflicts of a mutable store under
// position updates — the UpdateConflicts optimization of §5. Instead of
// re-evaluating every CDD after each fix, it removes the conflicts touching
// the updated fact and re-evaluates only the CDDs whose bodies can map an
// atom onto the updated fact.
type Tracker struct {
	base      *store.Store
	cdds      []*logic.CDD
	conflicts map[string]*Conflict
	byFact    map[store.FactID]map[string]bool
	// ordered/orderedKeys hold the live conflicts sorted by key, maintained
	// incrementally by binary-search insertion and removal — the keyed merge
	// that replaced re-sorting the whole set on every Conflicts call. Keys
	// are computed once at insertion (Conflict.Key formats a string) and
	// kept parallel to the conflicts.
	ordered     []*Conflict
	orderedKeys []string
	// pins holds the pinned-atom plans Update re-evaluates with.
	pins *Pins
}

// NewTracker computes the initial naive conflicts of the store and prepares
// the incremental indexes. The tracker observes — but does not own — the
// store: callers mutate it through store.SetValue and then call Update with
// the affected fact.
func NewTracker(base *store.Store, cdds []*logic.CDD) *Tracker {
	return NewTrackerUnder(0, base, cdds)
}

// NewTrackerUnder is NewTracker with the initial conflict scan's trace span
// parented under the given span id (0 for a root).
func NewTrackerUnder(parent uint64, base *store.Store, cdds []*logic.CDD) *Tracker {
	t := &Tracker{
		base:      base,
		cdds:      cdds,
		conflicts: make(map[string]*Conflict),
		byFact:    make(map[store.FactID]map[string]bool),
		pins:      NewPins(cdds, base),
	}
	for _, c := range AllNaiveUnder(parent, base, cdds) {
		t.add(c)
	}
	return t
}

// Pins is the pinned-atom plan table of a CDD set: for every body atom of
// every CDD, the rest of the body, compiled seed-specialized on that atom's
// variables so the orderer costs the rest-conjunction under the bindings
// every pinned search starts with. It runs the fact-local searches of §5's
// UpdateConflicts — every violation that uses a given fact, found by
// pinning one body atom onto it — for the Tracker; the chase of the CDDs'
// ⊥-rules searches the same plans. Immutable once built, so safe for
// concurrent use.
type Pins struct {
	cdds []*logic.CDD
	// byPred maps a predicate name to the indexes of CDDs mentioning it in
	// their body (the Σ_C^A of §5, at predicate granularity).
	byPred map[string][]int
	// plans[ci][ai] is the body-minus-atom-ai conjunction of CDD ci.
	plans [][]*homo.Plan
}

// NewPins compiles the pinned plans of the CDDs (homo.PinnedPlan). Plans
// are pure functions of (CDD, atom index, prebound set), so they are cached
// on the CDDs and shared by every table built over them — and by the chase
// of the CDDs' ⊥-rules; stats binds the join order on a first compile, so
// build tables at a sequential point, never inside a fan-out.
func NewPins(cdds []*logic.CDD, stats *store.Store) *Pins {
	p := &Pins{cdds: cdds, byPred: make(map[string][]int), plans: make([][]*homo.Plan, len(cdds))}
	for i, c := range cdds {
		seen := make(map[string]bool)
		for _, a := range c.Body {
			if !seen[a.Pred] {
				seen[a.Pred] = true
				p.byPred[a.Pred] = append(p.byPred[a.Pred], i)
			}
		}
		p.plans[i] = make([]*homo.Plan, len(c.Body))
		for ai := range c.Body {
			p.plans[i][ai] = homo.PinnedPlan(c, c.Body, ai, stats)
		}
	}
	return p
}

// Each calls fn, in (CDD, body atom) order, for every body atom that can be
// pinned onto the ground atom, with the seed binding that body atom's
// variables against it and the plan of the rest of the body. fn returns
// false to stop.
func (p *Pins) Each(atom logic.Atom, fn func(ci, ai int, seed logic.Subst, plan *homo.Plan) bool) {
	for _, ci := range p.byPred[atom.Pred] {
		for ai, ba := range p.cdds[ci].Body {
			seed, ok := homo.BindAtom(ba, atom)
			if !ok {
				continue
			}
			if !fn(ci, ai, seed, p.plans[ci][ai]) {
				return
			}
		}
	}
}

func (t *Tracker) add(c *Conflict) {
	k := c.Key()
	if _, dup := t.conflicts[k]; dup {
		return
	}
	mEdgeAdd.Inc()
	t.conflicts[k] = c
	i := sort.SearchStrings(t.orderedKeys, k)
	t.orderedKeys = append(t.orderedKeys, "")
	copy(t.orderedKeys[i+1:], t.orderedKeys[i:])
	t.orderedKeys[i] = k
	t.ordered = append(t.ordered, nil)
	copy(t.ordered[i+1:], t.ordered[i:])
	t.ordered[i] = c
	for _, f := range c.BaseFacts {
		m := t.byFact[f]
		if m == nil {
			m = make(map[string]bool)
			t.byFact[f] = m
		}
		m[k] = true
	}
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
}

// pinTask is one re-evaluation unit of Update: CDD ci with body atom ai
// pinned onto the updated fact through the seed substitution.
type pinTask struct {
	ci   int
	ai   int
	seed logic.Subst
	plan *homo.Plan // compiled body-minus-pinned-atom conjunction
}

// Update re-synchronizes the conflict set after the fact with the given id
// has been modified in the underlying store. Per §5: conflicts related to
// the fact are dropped, then every CDD related to the fact's (new) atom is
// re-evaluated with one body atom pinned onto the fact.
//
// The pinned-seed searches are independent read-only scans of the store,
// so they fan out over the par worker pool; the tracker's own indexes are
// only mutated afterwards, on the calling goroutine, in task order — the
// conflict set ends up identical for any worker count.
func (t *Tracker) Update(id store.FactID) {
	t.UpdateUnder(0, id)
}

// UpdateUnder is Update with the trace span parented under the given span
// id — the inquiry engine attributes each incremental re-sync to the
// question whose answer caused it. The span is emitted on this goroutine;
// the pinned-seed workers never touch the tracer.
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
	atom := t.base.FactRef(id)
	var tasks []pinTask
	// Pin each matching body atom onto the updated fact (its variables bound
	// against the fact), then search the remaining atoms.
	t.pins.Each(atom, func(ci, ai int, seed logic.Subst, plan *homo.Plan) bool {
		tasks = append(tasks, pinTask{ci: ci, ai: ai, seed: seed, plan: plan})
		return true
	})
	perTask := par.MapNamed("conflict.tracker", len(tasks), func(i int) []*Conflict {
		return t.scanPinned(id, atom, tasks[i])
	})
	var added int64
	for _, cs := range perTask {
		for _, c := range cs {
			t.add(c)
			added++
		}
	}
	flight.Record(flight.KindTrackerUpdate, int64(id), removed, added, 0)
	if sp.Live() {
		sp.End(obs.Int64("removed", removed), obs.Int64("added", added))
	}
}

// scanPinned runs one pinned-seed homomorphism search and returns the
// conflicts it witnesses. It reads the store and the (immutable) CDDs but
// never touches the tracker's mutable indexes.
func (t *Tracker) scanPinned(id store.FactID, atom logic.Atom, task pinTask) []*Conflict {
	cdd := t.cdds[task.ci]
	if attr.Enabled() {
		attrPinned.Add(AttrID(cdd), 1)
	}
	var out []*Conflict
	task.plan.ForEachSeeded(t.base, task.seed, func(m homo.Match) bool {
		facts := make([]store.FactID, 0, len(cdd.Body))
		ri := 0
		for j := range cdd.Body {
			if j == task.ai {
				facts = append(facts, id)
			} else {
				facts = append(facts, m.Facts[ri])
				ri++
			}
		}
		full := m.Subst.Clone()
		for v, val := range task.seed {
			full[v] = val
		}
		out = append(out, &Conflict{
			CDD:       cdd,
			CDDIdx:    task.ci,
			Hom:       full,
			Facts:     facts,
			BaseFacts: dedupIDs(facts),
			Direct:    true,
		})
		return true
	})
	return out
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

// PositionRanks returns, for every position of every fact involved in a
// conflict, the number of conflicts containing it — the vertex degrees of
// the conflict hypergraph used by opti-mcd.
func (t *Tracker) PositionRanks() map[store.Position]int {
	return PositionRanks(t.Conflicts(), t.base)
}

// positionRanksChunk is the fan-out granularity of PositionRanks: small
// conflict sets rank inline (a fan-out would cost more than the loop),
// larger ones split into chunks of this many conflicts.
const positionRanksChunk = 64

// PositionRanks computes per-position conflict membership counts for an
// arbitrary conflict set. Opti-mcd is an improvement over opti-join (§5),
// so for direct conflicts only the join positions are ranked — changing a
// non-join position can never resolve the conflict, and ranking it would
// steer the strategy toward wasted questions. Chase-level conflicts fall
// back to all base-support positions, as in GenerateQuestion-Chase.
//
// Ranking only reads the conflicts and the store, and per-position counts
// add commutatively, so big sets fan out chunk-wise over the par worker
// pool and merge additively — the result map is identical at any worker
// count.
func PositionRanks(conflicts []*Conflict, s *store.Store) map[store.Position]int {
	// Each CDD's pinArgs table is computed once per call, before any
	// fan-out, and only read by the chunks.
	args := make(map[*logic.CDD][][]int)
	for _, c := range conflicts {
		if _, ok := args[c.CDD]; !ok && c.Direct {
			args[c.CDD] = pinArgs(c.CDD)
		}
	}
	if len(conflicts) <= positionRanksChunk {
		return positionRanksSeq(conflicts, s, args)
	}
	chunks := (len(conflicts) + positionRanksChunk - 1) / positionRanksChunk
	parts := par.MapNamed("conflict.ranks", chunks, func(g int) map[store.Position]int {
		lo := g * positionRanksChunk
		hi := lo + positionRanksChunk
		if hi > len(conflicts) {
			hi = len(conflicts)
		}
		return positionRanksSeq(conflicts[lo:hi], s, args)
	})
	ranks := make(map[store.Position]int)
	for _, part := range parts {
		for p, n := range part {
			ranks[p] += n
		}
	}
	return ranks
}

func positionRanksSeq(conflicts []*Conflict, s *store.Store, args map[*logic.CDD][][]int) map[store.Position]int {
	ranks := make(map[store.Position]int)
	var buf []store.Position
	for _, c := range conflicts {
		var ps []store.Position
		if c.Direct {
			buf = c.joinPositionsInto(buf, args[c.CDD])
			ps = buf
		}
		if len(ps) == 0 {
			ps = c.Positions(s)
		}
		for _, p := range ps {
			ranks[p]++
		}
	}
	return ranks
}
