// Package conflict implements conflict detection and maintenance for
// knowledge bases with CDDs and TGDs.
//
// A conflict (Def. 2.3) is a pair X = (N, h) of a CDD N and a homomorphism
// h from body(N) into the chase Cl_ΣT(F). A *naive* conflict (§5) is the
// same with h mapping into F directly, without chasing. The package also
// provides the conflict hypergraph with per-position degrees (for the
// opti-mcd strategy), the incremental UpdateConflicts maintenance of §5,
// and the KB-structure indicators reported in the paper's experiment tables
// (average atoms per overlap, average scope).
package conflict

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"kbrepair/internal/chase"
	"kbrepair/internal/homo"
	"kbrepair/internal/logic"
	"kbrepair/internal/obs"
	"kbrepair/internal/obs/attr"
	"kbrepair/internal/obs/flight"
	"kbrepair/internal/par"
	"kbrepair/internal/store"
)

// Detection and hypergraph-maintenance instrumentation.
var (
	mScans      = obs.NewCounter("conflict.scans")
	mFound      = obs.NewCounter("conflict.conflicts_found")
	mDetectTime = obs.NewHistogram("conflict.detect_seconds", obs.LatencyBuckets)
	mEdgeAdd    = obs.NewCounter("conflict.hyperedges_added")
	mEdgeDel    = obs.NewCounter("conflict.hyperedges_removed")
	mUpdates    = obs.NewCounter("conflict.tracker_updates")
	mUpdateTime = obs.NewHistogram("conflict.update_seconds", obs.LatencyBuckets)
)

// Per-CDD attribution families (see internal/obs/attr).
var (
	attrFound  = attr.NewCounterVec(attr.FamConflictsFound)
	attrPinned = attr.NewCounterVec(attr.FamPinnedScans)
)

// AttrID resolves (and caches) the attribution ID of a CDD, keyed by its
// canonical string. Exported because the inquiry engine attributes
// questions and Π-checks to the CDD whose conflict caused them.
func AttrID(c *logic.CDD) attr.ID {
	if id, ok := attr.OwnerID(c); ok {
		return id
	}
	return attr.BindOwner(c, c.String())
}

// Conflict is one violation of one CDD.
type Conflict struct {
	// CDD is the violated dependency; CDDIdx its index in the KB's rule
	// set (used for stable identity).
	CDD    *logic.CDD
	CDDIdx int
	// Hom is the witnessing homomorphism from body(CDD).
	Hom logic.Subst
	// Facts are the facts the body atoms map onto, in body order. For
	// naive conflicts they are base-store ids; for chase conflicts they
	// are ids in the chase result store. A non-direct conflict of an
	// in-place scan (AllInPlace) names derived ids that the scan's
	// truncation removed again, so only a direct conflict's Facts may be
	// read against the store (JoinPositions and PositionRanks do only
	// that).
	Facts []store.FactID
	// BaseFacts is the base support of the conflict: for naive conflicts
	// the (deduplicated) Facts themselves, for chase conflicts the base
	// facts transitively supporting the violation. Questions are always
	// generated from BaseFacts, since only base facts can be fixed.
	BaseFacts []store.FactID
	// Direct is true when Facts are base-store ids aligned one-to-one with
	// the CDD's body atoms (naive conflicts, or chase conflicts whose body
	// atoms all map onto base facts). Join-position retrieval (opti-join)
	// is only defined for direct conflicts.
	Direct bool
	// key caches Key for conflicts built by a scan, which computes it
	// anyway to deduplicate; empty for a conflict built elsewhere.
	key string
}

// newConflict builds a conflict of CDD idx with homomorphism hom onto
// facts, computing its key once.
func newConflict(cdd *logic.CDD, idx int, hom logic.Subst, facts, baseFacts []store.FactID, direct bool) *Conflict {
	c := &Conflict{CDD: cdd, CDDIdx: idx, Hom: hom, Facts: facts, BaseFacts: baseFacts, Direct: direct}
	c.key = c.computeKey()
	return c
}

// JoinPositions returns, for a direct conflict, the base positions holding
// a join variable or a constant of the CDD body — exactly the positions
// whose modification can break the witnessing homomorphism (§5, opti-join).
// For non-direct conflicts it returns nil; callers fall back to Positions.
func (c *Conflict) JoinPositions(s *store.Store) []store.Position {
	if !c.Direct {
		return nil
	}
	return c.joinPositionsInto(nil, pinArgs(c.CDD))
}

// pinArgs returns, per body atom of the CDD, the argument indexes whose
// values pin a homomorphism: the join-variable arguments, then the
// constant arguments, each ascending. It depends on the CDD alone, so
// callers ranking many conflicts compute it once per CDD.
func pinArgs(cdd *logic.CDD) [][]int {
	joinArgs := cdd.JoinPositions()
	out := make([][]int, len(cdd.Body))
	for i, a := range cdd.Body {
		out[i] = append(out[i], joinArgs[i]...)
		// Constant-matched positions also pin the homomorphism.
		for j, t := range a.Args {
			if t.IsConst() {
				out[i] = append(out[i], j)
			}
		}
	}
	return out
}

// joinPositionsInto computes the conflict's join positions (see
// JoinPositions) from the CDD's pinArgs table, each position once, in
// body-atom then table order, reusing buf's storage. The conflict must be
// direct.
func (c *Conflict) joinPositionsInto(buf []store.Position, args [][]int) []store.Position {
	out := buf[:0]
	for i, js := range args {
		for _, j := range js {
			p := store.Position{Fact: c.Facts[i], Arg: j}
			if !slices.Contains(out, p) {
				out = append(out, p)
			}
		}
	}
	return out
}

// Key identifies the conflict up to the paper's (N, h) identity.
func (c *Conflict) Key() string {
	if c.key != "" {
		return c.key
	}
	return c.computeKey()
}

func (c *Conflict) computeKey() string {
	return fmt.Sprintf("%d|%s", c.CDDIdx, c.Hom.Key())
}

// InvolvesFact reports whether the given base fact takes part in the
// conflict.
func (c *Conflict) InvolvesFact(id store.FactID) bool {
	for _, f := range c.BaseFacts {
		if f == id {
			return true
		}
	}
	return false
}

// Positions returns every position of every base fact of the conflict —
// the paper's Π′ = {(A, i) | A ∈ h(body(N))} of Algorithm 2, restricted to
// base facts.
func (c *Conflict) Positions(s *store.Store) []store.Position {
	var out []store.Position
	for _, f := range c.BaseFacts {
		for i := 0; i < s.Arity(f); i++ {
			out = append(out, store.Position{Fact: f, Arg: i})
		}
	}
	return out
}

// String renders the conflict for diagnostics.
func (c *Conflict) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "conflict cdd#%d %s facts=%v", c.CDDIdx, c.Hom, c.BaseFacts)
	return sb.String()
}

func dedupIDs(ids []store.FactID) []store.FactID {
	seen := make(map[store.FactID]bool, len(ids))
	var out []store.FactID
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// bodyPlans resolves every CDD's body plan, compiling those not compiled
// before against stats. Scans call it before their fan-out: a first compile
// binds the join order from store statistics, and binding must happen at
// this sequential point, not under whichever worker misses the cache first.
func bodyPlans(stats *store.Store, cdds []*logic.CDD) []*homo.Plan {
	plans := make([]*homo.Plan, len(cdds))
	for i, c := range cdds {
		plans[i] = homo.CachedPlanWith(homo.CacheKey{Owner: c, Tag: homo.TagBody}, c.Body,
			homo.CompileOpts{Stats: stats})
	}
	return plans
}

// PrecompileBodies binds the body plans of the CDDs not compiled before
// against base's statistics, as a naive scan of base would. A chase-level
// scan binds them only after its chase, against the chased store, so a
// caller whose first scan is AllInPlace and whose later sessions expect
// plans bound against the base facts calls this first.
func PrecompileBodies(base *store.Store, cdds []*logic.CDD) { bodyPlans(base, cdds) }

// AllNaive computes allconflicts_naive(K): every homomorphism from every
// CDD body into the base store, deduplicated by (CDD, homomorphism).
//
// Detection fans out one task per CDD over the par worker pool — each CDD's
// homomorphism search is independent and only reads the store (the
// concurrent-read contract of internal/store). Per-CDD results are merged
// in CDD-index order, and each search enumerates deterministically, so the
// output is byte-identical to a sequential scan regardless of -workers.
func AllNaive(base *store.Store, cdds []*logic.CDD) []*Conflict {
	return AllNaiveUnder(0, base, cdds)
}

// AllNaiveUnder is AllNaive with the scan's trace span parented under the
// given span id (0 for a root) — the inquiry engine uses it to attribute
// detection time to the run or question that triggered the scan. The span
// is emitted from this goroutine only; the per-CDD workers stay silent.
func AllNaiveUnder(parent uint64, base *store.Store, cdds []*logic.CDD) []*Conflict {
	mScans.Inc()
	tm := obs.StartTimer()
	defer mDetectTime.Since(tm)
	var sp obs.Span
	if obs.Tracing() {
		sp = obs.StartSpanUnder(parent, "conflict.scan",
			obs.Int("cdds", len(cdds)), obs.Bool("naive", true))
	}
	plans := bodyPlans(base, cdds)
	perCDD := par.MapNamed("conflict.scan", len(cdds), func(i int) []*Conflict {
		return scanCDD(base, plans[i], cdds[i], i, nil)
	})
	var out []*Conflict
	for _, cs := range perCDD {
		out = append(out, cs...)
	}
	mFound.Add(int64(len(out)))
	flight.Record(flight.KindConflictScan, int64(len(cdds)), int64(len(out)), 0, 0)
	if sp.Live() {
		sp.End(obs.Int("conflicts", len(out)))
	}
	return out
}

// scanCDD enumerates the conflicts of one CDD against s, deduplicated by
// (CDD, homomorphism) — dedup never crosses CDDs because the conflict key
// starts with the CDD index. When res is non-nil the scan is a chase-level
// one: base supports come from provenance and Direct only holds when every
// violating atom is a base fact.
func scanCDD(s *store.Store, plan *homo.Plan, cdd *logic.CDD, idx int, res *chase.Result) []*Conflict {
	var out []*Conflict
	seen := make(map[string]bool)
	plan.ForEach(s, func(m homo.Match) bool {
		direct := true
		baseFacts := m.Facts
		if res != nil {
			for _, f := range m.Facts {
				if !res.IsBase(f) {
					direct = false
					break
				}
			}
			baseFacts = res.BaseSupportAll(m.Facts)
		}
		cf := newConflict(cdd, idx, m.Subst.Clone(), append([]store.FactID(nil), m.Facts...),
			dedupIDs(baseFacts), direct)
		if !seen[cf.key] {
			seen[cf.key] = true
			out = append(out, cf)
		}
		return true
	})
	if attr.Enabled() && len(out) > 0 {
		attrFound.Add(AttrID(cdd), int64(len(out)))
	}
	return out
}

// All computes allconflicts(K): the chase of the base store is evaluated
// against every CDD body, and each conflict is annotated with its base
// support via chase provenance. Only the TGDs relevant to the CDDs are
// chased (derivations from other rules can never take part in a CDD-body
// homomorphism). It returns the conflicts together with the chase result
// they were evaluated on, whose store is a clone of base extended with the
// derived facts; base itself is not modified.
func All(base *store.Store, tgds []*logic.TGD, cdds []*logic.CDD, opts chase.Options) ([]*Conflict, *chase.Result, error) {
	// Callers keep the chase result, so the scan chases a clone.
	return scan(base.Clone(), tgds, cdds, opts)
}

// AllInPlace returns the conflicts All returns, without copying s: the
// scan chases s itself and truncates it back to its facts before the call
// on every exit — conflicts found, ErrBudget or a firing error — so s ends
// exactly as it was, index order included. AllInPlace is therefore a
// writer under the store's concurrency contract: the caller holds s
// exclusively for the call. The chase result is gone when it returns, and
// with it the derived facts a non-direct conflict's Facts name (see
// Conflict.Facts).
func AllInPlace(s *store.Store, tgds []*logic.TGD, cdds []*logic.CDD, opts chase.Options) ([]*Conflict, error) {
	defer s.Truncate(s.Len())
	cs, _, err := scan(s, tgds, cdds, opts)
	return cs, err
}

// scan chases s in place under the TGDs relevant to the CDDs and evaluates
// every CDD body on the result: the one chase-level scan behind All (on a
// clone) and AllInPlace (on the caller's store, truncated afterwards).
func scan(s *store.Store, tgds []*logic.TGD, cdds []*logic.CDD, opts chase.Options) ([]*Conflict, *chase.Result, error) {
	mScans.Inc()
	tm := obs.StartTimer()
	defer mDetectTime.Since(tm)
	// The scan span is parented wherever the caller pointed the chase
	// options (e.g. the inquiry.question span); the chase run underneath is
	// then re-parented under the scan, so the waterfall shows
	// question → conflict.scan → chase.run → chase.round.
	var sp obs.Span
	if obs.Tracing() && !opts.TraceQuiet {
		sp = obs.StartSpanUnder(opts.TraceParent, "conflict.scan",
			obs.Int("cdds", len(cdds)), obs.Bool("naive", false))
		opts.TraceParent = sp.ID()
	}
	tgds = chase.RelevantTGDs(tgds, cdds)
	res, err := chase.RunInPlace(s, tgds, opts)
	if err != nil {
		sp.End()
		return nil, nil, err
	}
	// Same fan-out shape as AllNaive: one read-only task per CDD over the
	// chased store, merged in CDD-index order. Concurrent tasks share the
	// chase result's memoized base-support cache, which is goroutine-safe.
	// Plans resolve sequentially first so order binding never races.
	plans := bodyPlans(res.Store, cdds)
	perCDD := par.MapNamed("conflict.scan", len(cdds), func(i int) []*Conflict {
		return scanCDD(res.Store, plans[i], cdds[i], i, res)
	})
	var out []*Conflict
	for _, cs := range perCDD {
		out = append(out, cs...)
	}
	mFound.Add(int64(len(out)))
	flight.Record(flight.KindConflictScan, int64(len(cdds)), int64(len(out)), 1, 0)
	if sp.Live() {
		sp.End(obs.Int("conflicts", len(out)))
	}
	return out, res, nil
}

// Stats reports the KB-structure indicators the paper attaches to each
// experiment table.
type Stats struct {
	// NumConflicts is the number of conflicts.
	NumConflicts int
	// AtomsInConflicts is the number of distinct base facts involved in at
	// least one conflict (used for the inconsistency ratio).
	AtomsInConflicts int
	// AvgAtomsPerConflict is the mean number of base facts per conflict.
	AvgAtomsPerConflict float64
	// AvgAtomsPerOverlap is the mean size (in atoms) of the pairwise
	// intersections between overlapping conflicts ("Avg # atoms per
	// overlap").
	AvgAtomsPerOverlap float64
	// AvgScope is, averaged over conflicts, the number of other conflicts
	// sharing at least one atom with it ("Avg scope").
	AvgScope float64
}

// ComputeStats derives the indicator values from a set of conflicts.
func ComputeStats(conflicts []*Conflict) Stats {
	st := Stats{NumConflicts: len(conflicts)}
	if len(conflicts) == 0 {
		return st
	}
	inConflict := make(map[store.FactID]bool)
	totalAtoms := 0
	for _, c := range conflicts {
		totalAtoms += len(c.BaseFacts)
		for _, f := range c.BaseFacts {
			inConflict[f] = true
		}
	}
	st.AtomsInConflicts = len(inConflict)
	st.AvgAtomsPerConflict = float64(totalAtoms) / float64(len(conflicts))

	// Pairwise overlaps. Conflict sets are small; index conflicts by fact
	// to avoid the full quadratic scan on big instances.
	byFact := make(map[store.FactID][]int)
	for i, c := range conflicts {
		for _, f := range c.BaseFacts {
			byFact[f] = append(byFact[f], i)
		}
	}
	overlapSize := make(map[[2]int]int)
	for _, members := range byFact {
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				a, b := members[i], members[j]
				if a > b {
					a, b = b, a
				}
				overlapSize[[2]int{a, b}]++
			}
		}
	}
	if len(overlapSize) > 0 {
		total := 0
		for _, n := range overlapSize {
			total += n
		}
		st.AvgAtomsPerOverlap = float64(total) / float64(len(overlapSize))
	}
	scope := make([]map[int]bool, len(conflicts))
	for pair := range overlapSize {
		a, b := pair[0], pair[1]
		if scope[a] == nil {
			scope[a] = make(map[int]bool)
		}
		if scope[b] == nil {
			scope[b] = make(map[int]bool)
		}
		scope[a][b] = true
		scope[b][a] = true
	}
	totalScope := 0
	for _, m := range scope {
		totalScope += len(m)
	}
	st.AvgScope = float64(totalScope) / float64(len(conflicts))
	return st
}
