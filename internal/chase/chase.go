// Package chase implements the restricted (standard) chase for
// weakly-acyclic TGDs, with per-fact provenance, plus the two consistency
// checks of the paper: the naive one (full chase, then evaluate every CDD
// body) and CheckConsistency-Opt (§5), which compiles CDDs into ⊥-headed
// rules and aborts the chase the moment ⊥ is derived.
package chase

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"kbrepair/internal/homo"
	"kbrepair/internal/logic"
	"kbrepair/internal/obs"
	"kbrepair/internal/obs/attr"
	"kbrepair/internal/obs/flight"
	"kbrepair/internal/store"
)

// Pipeline instrumentation (see README "Observability" for the inventory).
// Counters are always-on atomic adds; the run-latency histogram only costs
// a clock read when obs timing is enabled.
var (
	mRuns     = obs.NewCounter("chase.runs")
	mRounds   = obs.NewCounter("chase.rounds")
	mTriggers = obs.NewCounter("chase.trigger_checks")
	mFirings  = obs.NewCounter("chase.rule_firings")
	mDerived  = obs.NewCounter("chase.facts_derived")
	mNulls    = obs.NewCounter("chase.nulls_invented")
	// mDeferred counts triggers that crossed a round boundary: every trigger
	// collected in round ≥ 2 involves a fact derived the round before, i.e.
	// it existed conceptually the moment that fact was added but — by the
	// round-start collection discipline — was deferred to the next round's
	// scan. This quantifies the cost of collecting a round's triggers up
	// front.
	mDeferred = obs.NewCounter("chase.triggers_deferred")
	mRunTime  = obs.NewHistogram("chase.run_seconds", obs.LatencyBuckets)
	// gRound is the live-progress gauge read back by /statusz: the round
	// the chase currently in flight is on, reset to 0 when the run ends so
	// an idle process never reports the previous run's round forever.
	// Concurrent runs overwrite each other last-writer-wins, which is fine
	// for a dashboard.
	gRound = obs.NewGauge(obs.StatusChaseRound)
)

// Per-TGD attribution families: which rule is checking, firing and deriving
// (see internal/obs/attr). IDs are content-addressed by the rule's
// canonical string and interned when the rule is compiled (NewRules).
var (
	attrTriggers = attr.NewCounterVec(attr.FamTriggerChecks)
	attrFirings  = attr.NewCounterVec(attr.FamRuleFirings)
	attrDerived  = attr.NewCounterVec(attr.FamFactsDerived)
)

// ErrBudget is returned when the chase exceeds its safety budget. On a
// weakly-acyclic rule set this indicates a budget set too low; on arbitrary
// rules it is the guard against non-termination.
var ErrBudget = errors.New("chase: derivation budget exceeded")

// Derivation records how a derived fact came to be: the rule that fired,
// the base-store facts its body mapped onto (ids in the chase result store),
// and which head atom of the rule produced it.
type Derivation struct {
	Rule    *logic.TGD
	Parents []store.FactID
	HeadIdx int
}

// Result is the outcome of a chase run.
type Result struct {
	// Store contains the base facts (same ids as the input store) followed
	// by all derived facts.
	Store *store.Store
	// BaseLen is the number of base facts; ids < BaseLen are base facts.
	BaseLen int
	// Prov maps each derived fact id to its derivation.
	Prov map[store.FactID]Derivation
	// Rounds is the number of saturation rounds performed.
	Rounds int

	// supportMu guards supportMemo. Provenance is immutable once the run
	// returns, so the memo only ever grows; the lock makes the cache safe
	// for the concurrent per-CDD scans of a chase-level conflict scan.
	supportMu sync.Mutex
	// supportMemo caches BaseSupport per fact: conflict materialization
	// walks the same shared provenance DAG once per chase-level conflict
	// fact, and without the memo each walk restarts from scratch.
	supportMemo map[store.FactID][]store.FactID
}

// Derived returns the ids of all derived (non-base) facts in ascending order.
func (r *Result) Derived() []store.FactID {
	out := make([]store.FactID, 0, r.Store.Len()-r.BaseLen)
	for id := store.FactID(r.BaseLen); int(id) < r.Store.Len(); id++ {
		out = append(out, id)
	}
	return out
}

// IsBase reports whether id denotes a base fact.
func (r *Result) IsBase(id store.FactID) bool { return int(id) < r.BaseLen }

// BaseSupport returns the set of base facts that (transitively) support the
// given fact: the fact itself if it is base, otherwise the union of the
// supports of its derivation parents. The result is sorted and duplicate
// free. Support sets are memoized per fact (provenance never changes after
// the run), so repeated queries over a shared derivation DAG — one per
// chase-level conflict fact in conflict materialization — each cost one
// map lookup instead of a full DAG walk.
func (r *Result) BaseSupport(id store.FactID) []store.FactID {
	r.supportMu.Lock()
	defer r.supportMu.Unlock()
	s := r.baseSupportLocked(id)
	// Callers own their result; the memo keeps the canonical copy.
	return append([]store.FactID(nil), s...)
}

// baseSupportLocked computes (and caches) the support set of id, memoizing
// every intermediate fact of the DAG walk. supportMu must be held.
func (r *Result) baseSupportLocked(id store.FactID) []store.FactID {
	if s, ok := r.supportMemo[id]; ok {
		return s
	}
	var out []store.FactID
	if r.IsBase(id) {
		out = []store.FactID{id}
	} else {
		seen := make(map[store.FactID]bool)
		for _, p := range r.Prov[id].Parents {
			for _, b := range r.baseSupportLocked(p) {
				if !seen[b] {
					seen[b] = true
					out = append(out, b)
				}
			}
		}
		sortIDs(out)
	}
	if r.supportMemo == nil {
		r.supportMemo = make(map[store.FactID][]store.FactID)
	}
	r.supportMemo[id] = out
	return out
}

// BaseSupportAll returns the union of base supports of several facts.
func (r *Result) BaseSupportAll(ids []store.FactID) []store.FactID {
	r.supportMu.Lock()
	defer r.supportMu.Unlock()
	seen := make(map[store.FactID]bool)
	var out []store.FactID
	for _, id := range ids {
		for _, b := range r.baseSupportLocked(id) {
			if !seen[b] {
				seen[b] = true
				out = append(out, b)
			}
		}
	}
	sortIDs(out)
	return out
}

func sortIDs(ids []store.FactID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// Options configure a chase run.
type Options struct {
	// MaxDerived caps the number of derived facts (0 means the default of
	// 1_000_000). The chase returns ErrBudget when exceeded.
	MaxDerived int
	// MaxRounds caps saturation rounds (0 means the default of 10_000).
	MaxRounds int
	// TraceParent is the span id the chase.run trace span is parented
	// under (0 for a root span) — how callers attribute chase time to the
	// question or scan that triggered it.
	TraceParent uint64
	// TraceQuiet suppresses the run's trace spans entirely. The Π-checker
	// sets it: a batch runs many short chases, and their time is
	// attributed to the batch's core.pi_batch span instead.
	TraceQuiet bool
}

func (o Options) maxDerived() int {
	if o.MaxDerived <= 0 {
		return 1_000_000
	}
	return o.MaxDerived
}

func (o Options) maxRounds() int {
	if o.MaxRounds <= 0 {
		return 10_000
	}
	return o.MaxRounds
}

// Run computes the restricted chase of the base store under the TGDs of rs.
// The base store is not modified; the result store is a clone extended with
// derived facts. A trigger (rule, body homomorphism) fires only if the head
// is not already satisfied by an extension of the frontier bindings — the
// standard-chase applicability condition that guarantees termination on
// weakly-acyclic rule sets.
func Run(base *store.Store, rs *Rules, opts Options) (*Result, error) {
	// Callers keep the result store, so the chase extends a clone.
	return runRules(base.Clone(), rs.table, delta{}, opts, "")
}

// RunInPlace is Run on s itself: derived facts are appended to s, which
// becomes the result store, and the facts already there keep their ids,
// values and index entries. A caller that wants s back truncates it to its
// length before the call, on every exit (ErrBudget and a firing error leave
// what was derived so far). RunInPlace is a writer under the store's
// concurrency contract: the caller holds s exclusively for the call.
func RunInPlace(s *store.Store, rs *Rules, opts Options) (*Result, error) {
	return runRules(s, rs.table, delta{}, opts, "")
}

// delta is the set of facts every trigger of a chase round must use: the
// facts with id ≥ lo, or, when ids is non-nil, the facts listed in ids
// (ascending; the rewritten facts a ContinueFrom starts from). byPred
// groups them by predicate, each list in id order; a tail's lists are
// filled when a round collects from it (groupTail).
type delta struct {
	lo     store.FactID
	ids    []store.FactID
	byPred map[string][]store.FactID
}

// listDelta is the delta of the sorted fact ids.
func listDelta(s *store.Store, ids []store.FactID) delta {
	if ids == nil {
		ids = []store.FactID{} // an empty list, not a tail
	}
	d := delta{ids: ids, byPred: make(map[string][]store.FactID)}
	for _, id := range ids {
		p := s.FactRef(id).Pred
		d.byPred[p] = append(d.byPred[p], id)
	}
	return d
}

// groupTail fills the per-predicate lists of a tail delta in one walk
// over the tail. A predicate's list in s only grows by appends and shrinks
// by Truncate, so it is in id order and its delta facts are a suffix of
// it: each list is that suffix, found once per predicate, not copied.
func (d *delta) groupTail(s *store.Store) {
	d.byPred = make(map[string][]store.FactID)
	for id := d.lo; int(id) < s.Len(); id++ {
		p := s.FactRef(id).Pred
		if _, ok := d.byPred[p]; ok {
			continue
		}
		ids := s.CandidatesByPred(p)
		d.byPred[p] = ids[sort.Search(len(ids), func(k int) bool { return ids[k] >= id }):]
	}
}

// size returns the number of facts of s in the delta.
func (d delta) size(s *store.Store) int {
	if d.ids != nil {
		return len(d.ids)
	}
	return max(s.Len()-int(d.lo), 0)
}

// has reports whether the fact id is in the delta.
func (d delta) has(id store.FactID) bool {
	if d.ids != nil {
		_, ok := slices.BinarySearch(d.ids, id)
		return ok
	}
	return id >= d.lo
}

// ofPred returns the delta facts with predicate pred, in id order.
func (d delta) ofPred(pred string) []store.FactID {
	return d.byPred[pred]
}

// runRules is the shared, instrumented engine; it extends s in place
// (chaseLoop), starting from the delta d. If abortPred is non-empty, the
// chase stops as soon as a fact with that predicate is derived (used by
// the ⊥ optimization).
func runRules(s *store.Store, rs *ruleSet, d delta, opts Options, abortPred string) (*Result, error) {
	mRuns.Inc()
	tm := obs.StartTimer()
	defer mRunTime.Since(tm)
	if obs.Tracing() && !opts.TraceQuiet {
		sp := obs.StartSpanUnder(opts.TraceParent, "chase.run",
			obs.Int("base_facts", s.Len()), obs.Int("tgds", len(rs.rules)))
		res, err := chaseLoop(s, rs, d, opts, abortPred, sp)
		if res != nil {
			sp.End(obs.Int("rounds", res.Rounds), obs.Int("derived", len(res.Prov)))
		} else {
			sp.End()
		}
		return res, err
	}
	return chaseLoop(s, rs, d, opts, abortPred, obs.Span{})
}

// chaseLoop is the saturation engine. It extends the store it is handed:
// derived facts are appended after the facts already there, whose ids,
// values and index entries it never touches — so a caller that wants the
// store back truncates it (IsConsistentOpt, Checker, the in-place conflict
// scan), and one that keeps the result hands in a clone (Run).
//
// The first round's delta is d, and each later round's delta is what the
// round before derived: a tail of the store, because derivations are
// appended, so a delta is just its lowest id. A run from 0 starts with a
// full round that enumerates every body homomorphism; every other round —
// round ≥ 2 of any run, and every round of a continuation from a saturated
// store, whose first delta is a tail (ConsistentWith) or a list of
// rewritten facts (ContinueFrom) — is a delta round, whose triggers are
// the homomorphisms that use a delta fact (collectDelta). Triggers that
// use no delta fact were satisfied before, so no other trigger can be
// new. Each round has two phases:
//
//  1. Trigger collection — a homomorphism search per rule against the
//     store as it stood at the start of the round, in rule order. A
//     trigger that only exists because of a fact derived *within* the
//     current round is picked up next round through the delta (its newest
//     fact is in this round's delta), so nothing is lost by collecting at
//     the round start.
//  2. Firing — one trigger at a time, in (rule, trigger) order: the
//     restricted-chase applicability check against the live store, so a
//     firing earlier in the round can satisfy a later trigger's head, then
//     the head instantiation, committed with one AddBatch. Invented nulls
//     are named by firing coordinate (round, rule, trigger, existential
//     index — store.NullForCoord), so a null's label is a function of
//     where it was invented. The committed facts, their ids and their
//     provenance are those of the test-only RunSequentialReference, up to
//     the naming of invented nulls.
//
// sp is the enclosing chase.run trace span (inert when tracing is off):
// each round emits a chase.round child, so a slow chase decomposes
// round-by-round in the waterfall.
func chaseLoop(s *store.Store, rs *ruleSet, d delta, opts Options, abortPred string, sp obs.Span) (*Result, error) {
	res := &Result{
		Store:   s,
		BaseLen: s.Len(),
		Prov:    make(map[store.FactID]Derivation),
	}
	if len(rs.rules) == 0 {
		return res, nil
	}
	// The chase-round gauge tracks the run in flight; once the run is over
	// the process is idle again and /statusz must not keep reporting the
	// last round forever.
	defer gRound.Set(0)
	budget := opts.maxDerived()

	for d.size(s) > 0 {
		res.Rounds++
		mRounds.Inc()
		gRound.Set(int64(res.Rounds))
		flight.Record(flight.KindChaseRoundStart, int64(res.Rounds), int64(d.size(s)), 0, 0)
		flight.ObserveChaseRound(res.Rounds, opts.maxRounds())
		rsp := sp.Child("chase.round")
		if res.Rounds > opts.maxRounds() {
			// Balance the just-emitted round-start event: every exit path
			// owes a round-end, marked with why the round ended early.
			flight.RecordNote4(flight.KindChaseRoundEnd, int64(res.Rounds), 0, 0, 0, flight.RoundStatusBudget)
			rsp.End()
			return res, fmt.Errorf("%w: more than %d rounds", ErrBudget, opts.maxRounds())
		}
		perRule := rs.collect(s, d)
		// Every trigger of round ≥ 2 involves a fact derived the round
		// before: it was deferred across the round-start boundary.
		var deferred int64
		if res.Rounds > 1 {
			for _, ms := range perRule {
				deferred += int64(len(ms))
			}
			mDeferred.Add(deferred)
		}
		// The next round's delta starts after this round's start.
		d = delta{lo: store.FactID(s.Len())}
		var derived int
		var firings int64
		for ri, r := range rs.rules {
			if len(perRule[ri]) == 0 {
				continue
			}
			for ti, m := range perRule[ri] {
				mTriggers.Inc()
				attrTriggers.Add(r.aid, 1)
				frontier := m.Subst.Restrict(r.front)
				if r.head.ExistsSeeded(s, frontier) {
					continue
				}
				if budget-len(res.Prov) < len(r.tgd.Head) {
					flight.RecordNote4(flight.KindChaseRoundEnd, int64(res.Rounds), int64(derived), deferred, firings, flight.RoundStatusBudget)
					rsp.End()
					return res, ErrBudget
				}
				mFirings.Inc()
				attrFirings.Add(r.aid, 1)
				mNulls.Add(int64(len(r.exist)))
				ids, err := s.AddBatch(r.instantiate(s, frontier, res.Rounds, ri, ti))
				if err != nil {
					flight.RecordNote4(flight.KindChaseRoundEnd, int64(res.Rounds), int64(derived), deferred, firings, flight.RoundStatusError)
					rsp.End()
					return res, fmt.Errorf("chase: firing %s: %w", r.tgd, err)
				}
				firings++
				mDerived.Add(int64(len(ids)))
				attrDerived.Add(r.aid, int64(len(ids)))
				for i, id := range ids {
					res.Prov[id] = Derivation{Rule: r.tgd, Parents: m.Facts, HeadIdx: i}
					derived++
					if abortPred != "" && r.tgd.Head[i].Pred == abortPred {
						flight.RecordNote4(flight.KindChaseRoundEnd, int64(res.Rounds), int64(derived), deferred, firings, flight.RoundStatusAborted)
						if rsp.Live() {
							rsp.End(obs.Int("round", res.Rounds),
								obs.Int("derived", derived),
								obs.Int64("firings", firings),
								obs.Bool("aborted", true))
						}
						return res, nil
					}
				}
			}
		}
		flight.Record(flight.KindChaseRoundEnd, int64(res.Rounds), int64(derived), deferred, firings)
		if rsp.Live() {
			rsp.End(obs.Int("round", res.Rounds),
				obs.Int("derived", derived),
				obs.Int64("firings", firings))
		}
	}
	return res, nil
}

// instantiate returns the head atoms of a firing of r under the frontier
// bindings: safe(H), each existential bound to the null of its firing
// coordinate (round, rule ri, trigger ti).
func (r *rule) instantiate(s *store.Store, frontier logic.Subst, round, ri, ti int) []logic.Atom {
	inst := frontier
	if len(r.exist) > 0 {
		inst = frontier.Clone()
		for x, z := range r.exist {
			inst[z] = s.NullForCoord(round, ri, ti, x)
		}
	}
	atoms := make([]logic.Atom, len(r.tgd.Head))
	for i, h := range r.tgd.Head {
		atoms[i] = inst.Apply(h)
	}
	return atoms
}

// collect gathers every rule's triggers against the round-start store, in
// rule order. A tail delta from 0 is a full round: every body homomorphism
// is a trigger. Otherwise the triggers are the homomorphisms that use a
// delta fact, and only rules with a body predicate among the delta's are
// searched.
func (rs *ruleSet) collect(s *store.Store, d delta) [][]homo.Match {
	perRule := make([][]homo.Match, len(rs.rules))
	if d.ids == nil && d.lo == 0 {
		for i, r := range rs.rules {
			perRule[i] = collectAll(s, r.body)
		}
		return perRule
	}
	if d.byPred == nil {
		d.groupTail(s)
	}
	var cand []int
	for p := range d.byPred {
		for _, ri := range rs.byPred[p] {
			if !slices.Contains(cand, ri) {
				cand = append(cand, ri)
			}
		}
	}
	slices.Sort(cand)
	for _, ri := range cand {
		perRule[ri] = collectDelta(s, rs.rules[ri], d)
	}
	return perRule
}

// collectAll gathers every body homomorphism of a rule. Matches are cloned
// because the store is mutated later, while firing.
func collectAll(s *store.Store, body *homo.Plan) []homo.Match {
	var out []homo.Match
	body.ForEach(s, func(m homo.Match) bool {
		out = append(out, m.Clone())
		return true
	})
	return out
}

// collectDelta gathers the body homomorphisms of a rule that map at least
// one body atom onto a fact of the delta by pinned delta collection: each
// body atom is pinned onto each delta fact of its predicate and the rest
// of the body is searched with the pinned plan (homo.Plan.ForEachPinned);
// a one-atom body's pin is the whole trigger. A homomorphism with several
// body atoms on delta facts is found once per such atom; it is kept only
// under the lowest, so each trigger is collected once. The work is
// proportional to what the delta can join with, not to the rule's matches
// over the whole store, and a delta fact the pinned atom does not map onto
// costs no allocation.
func collectDelta(s *store.Store, r *rule, d delta) []homo.Match {
	if d.byPred == nil {
		// A tail not grouped yet: collect groups a round's delta once for
		// all its rules, so only a direct call gets here.
		d.groupTail(s)
	}
	if r.pinned != nil {
		return collectPinned(s, r, d)
	}
	var out []homo.Match
	for _, id := range d.ofPred(r.pin.Pred()) {
		if fact := s.FactRef(id); r.pin.Matches(fact) {
			out = append(out, homo.Match{Subst: r.pin.Subst(fact), Facts: []store.FactID{id}})
		}
	}
	return out
}

// collectPinned is collectDelta for a rule with pinned plans. One callback
// serves every pinned search.
func collectPinned(s *store.Store, r *rule, d delta) []homo.Match {
	var out []homo.Match
	var ai int
	var id store.FactID
	keep := func(m homo.Match) bool {
		// The pinned plan's atoms are the body's without atom ai, in body
		// order, so m.Facts[:ai] are body atoms 0..ai-1.
		for _, f := range m.Facts[:ai] {
			if d.has(f) {
				return true
			}
		}
		facts := make([]store.FactID, 0, len(r.tgd.Body))
		facts = append(append(append(facts, m.Facts[:ai]...), id), m.Facts[ai:]...)
		out = append(out, homo.Match{Subst: m.Subst.Clone(), Facts: facts})
		return true
	}
	for ai = range r.tgd.Body {
		for _, id = range d.ofPred(r.tgd.Body[ai].Pred) {
			r.pinned[ai].ForEachPinned(s, s.FactRef(id), keep)
		}
	}
	return out
}

// IsConsistentNaive runs the full chase and then evaluates every CDD body on
// the chased store — the paper's CheckConsistency. It returns whether the KB
// is consistent.
func IsConsistentNaive(base *store.Store, rs *Rules, opts Options) (bool, error) {
	res, err := Run(base, rs, opts)
	if err != nil {
		return false, err
	}
	for _, c := range rs.CDD {
		if c.Body.Exists(res.Store) {
			return false, nil
		}
	}
	return true, nil
}

// BottomPred is the reserved predicate used by the ⊥ optimization. It cannot
// clash with user predicates because the parser rejects "!" as an
// identifier.
const BottomPred = "⊥"

// IsConsistentOpt is CheckConsistency-Opt: it chases with CDDs compiled to
// ⊥-rules — restricted to the TGDs relevant to the CDDs — and stops as
// early as possible. It returns whether the KB is consistent (see
// Checker.Consistent for the in-place contract).
func IsConsistentOpt(base *store.Store, rs *Rules, opts Options) (bool, error) {
	return NewChecker(rs).Consistent(base, opts)
}

// Checker is CheckConsistency-Opt over a compiled rule set: the CDD
// bodies, for the check that needs no chase, and the chase table of the
// TGDs relevant to the CDDs followed by the CDDs' ⊥-rules. Besides the
// one-shot check it offers saturate-then-continue checking: Saturate chases
// a store once, ConsistentWith decides a store extended by one fact by
// chasing on from that fact only, and ContinueFrom brings a saturated store
// whose facts were rewritten in place back to fixpoint by chasing on from
// the rewritten facts. Immutable, so concurrent checks on distinct stores
// may share it.
type Checker struct {
	rs *Rules
	// tgds is the number of relevant TGDs, the first rules of rs.check.
	tgds int
}

// NewChecker returns the check of the rule set.
func NewChecker(rs *Rules) *Checker {
	return &Checker{rs: rs, tgds: len(rs.relevant.table.rules)}
}

// HasTGDs reports whether a TGD is relevant to the CDDs — whether Saturate
// and ConsistentWith chase. Without one, s is consistent iff no CDD body
// maps into it.
func (c *Checker) HasTGDs() bool { return c.tgds > 0 }

// ViolatedAt reports whether a CDD body maps into s with one of its atoms
// on the fact id — whether s has a violation that uses that fact, found by
// pinning each body atom onto it as delta collection does.
func (c *Checker) ViolatedAt(s *store.Store, id store.FactID) bool {
	violated := false
	fact := s.FactRef(id)
	c.rs.EachPinned(fact, func(ci, ai int) bool {
		violated = c.rs.CDD[ci].Pinned[ai].ExistsPinned(s, fact)
		return !violated
	})
	return violated
}

// violatedAsIs reports whether a CDD body maps into s without chasing.
func (c *Checker) violatedAsIs(s *store.Store) bool {
	for _, r := range c.rs.CDD {
		if r.Body.Exists(s) {
			return true
		}
	}
	return false
}

// Consistent reports whether s is consistent under the checker's rules.
//
// The chase runs in place: derived facts are appended to s and removed
// again by a deferred Truncate, so every exit — consistent, ⊥ abort,
// ErrBudget or a firing error — leaves s exactly as it was, index order
// included, and a check costs what it derives rather than a copy of s.
// Consistent is therefore a writer under the store's concurrency contract:
// the caller must hold s exclusively for the duration of the call (no
// concurrent reader, not even another consistency check).
func (c *Checker) Consistent(s *store.Store, opts Options) (bool, error) {
	// Fast path: a CDD already violated by the facts needs no chase.
	if c.violatedAsIs(s) {
		return false, nil
	}
	if c.tgds == 0 {
		// No TGD is relevant: the CDD bodies have been checked.
		return true, nil
	}
	defer s.Truncate(s.Len())
	return c.chase(s, delta{}, opts)
}

// chase runs the ⊥-aborting chase on s from the delta d and reports
// whether it ended without deriving ⊥.
func (c *Checker) chase(s *store.Store, d delta, opts Options) (bool, error) {
	res, err := runRules(s, c.rs.check, d, opts, BottomPred)
	if err != nil {
		return false, err
	}
	return len(res.Store.ByPredicate(BottomPred)) == 0, nil
}

// Saturate chases s in place, keeping what it derives, and reports whether
// s is consistent. When it is, s holds its chase to fixpoint under the
// relevant TGDs and ⊥-rules, ready for ConsistentWith; when it is not, the
// chase stopped at the first ⊥ (or never ran, for a CDD violated by s
// itself). On an error s is truncated back to its facts before the call.
// Like Consistent it is a writer. A caller that modifies facts of s in
// place afterwards either truncates the saturation away or keeps it up to
// date with ContinueFrom.
func (c *Checker) Saturate(s *store.Store, opts Options) (bool, error) {
	if c.violatedAsIs(s) {
		return false, nil
	}
	if c.tgds == 0 {
		// Without a TGD, s is its own fixpoint.
		return true, nil
	}
	n := s.Len()
	ok, err := c.chase(s, delta{}, opts)
	if err != nil {
		s.Truncate(n)
	}
	return ok, err
}

// ContinueFrom chases s in place from the listed facts, keeping what it
// derives, and reports whether it ended without deriving ⊥. ids must be
// ascending fact ids of s, and every trigger of s that uses none of them
// must be satisfied in s, with no ⊥ among its facts: s is a consistent
// saturation whose listed facts were rewritten in place. The first round
// collects only the triggers with a body atom on a listed fact, each kept
// under its lowest such atom, by pinned collection; later rounds are
// delta rounds, so s ends at fixpoint or at the first ⊥ as Saturate's
// chase would. No fact is copied: the listed facts keep their ids. Without
// a relevant TGD the round is the ⊥-rules pinned at each listed fact
// (ViolatedAt) and nothing is derived. On an error s is truncated back to
// its length before the call, which leaves it short of fixpoint. Like
// Saturate it is a writer.
func (c *Checker) ContinueFrom(s *store.Store, ids []store.FactID, opts Options) (bool, error) {
	if c.tgds == 0 {
		return !slices.ContainsFunc(ids, func(id store.FactID) bool { return c.ViolatedAt(s, id) }), nil
	}
	if len(ids) == 0 {
		return true, nil
	}
	n := s.Len()
	ok, err := c.chase(s, listDelta(s, ids), opts)
	if err != nil {
		s.Truncate(n)
	}
	return ok, err
}

// ConsistentWith decides whether s ∪ {a} is consistent, where s is a
// consistent store saturated by Saturate: it appends a, continues the chase
// from it alone — semi-naively, every round a delta round — until ⊥ or
// fixpoint, and truncates s back to its saturation on every exit, so a
// check costs what a derives. Facts of s need no second look: s is at
// fixpoint, so every trigger the continuation can add uses a. Like
// Consistent it is a writer.
func (c *Checker) ConsistentWith(s *store.Store, a logic.Atom, opts Options) (bool, error) {
	n := s.Len()
	defer s.Truncate(n)
	id, err := s.Add(a)
	if err != nil {
		return false, err
	}
	if c.tgds == 0 {
		// The continuation's only round: the ⊥-rules pinned at a.
		return !c.ViolatedAt(s, id), nil
	}
	return c.chase(s, delta{lo: id}, opts)
}

// Answers computes the certain answers of a conjunctive query (body with
// distinguished variables answVars) over the KB (F, ΣT): it chases F and
// evaluates the query on the result, keeping only the all-constant tuples —
// the paper's Q(F, ΣT).
func Answers(base *store.Store, rs *Rules, body []logic.Atom, answVars []logic.Term, opts Options) ([][]logic.Term, error) {
	res, err := Run(base, rs, opts)
	if err != nil {
		return nil, err
	}
	all := homo.Answers(res.Store, body, answVars)
	out := all[:0]
	for _, tuple := range all {
		ok := true
		for _, t := range tuple {
			if !t.IsConst() {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, tuple)
		}
	}
	return out, nil
}
