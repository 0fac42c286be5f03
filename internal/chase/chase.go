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
	"kbrepair/internal/par"
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
	// round-start snapshot discipline that keeps parallel collection
	// deterministic — was deferred to the next round's scan. This quantifies
	// the cost of the snapshot discipline (ROADMAP open item).
	mDeferred = obs.NewCounter("chase.triggers_deferred")
	// Speculative-fire/commit protocol counters. spec_firings counts
	// triggers that passed the applicability check against the round-start
	// snapshot (speculative phase, parallel); spec_revalidations counts the
	// commit-time re-checks of survivors whose head predicates gained facts
	// earlier in the same round; spec_rejected counts survivors those
	// re-checks killed. All three are deterministic across worker counts —
	// they depend only on round-start state and commit order.
	mSpecFirings  = obs.NewCounter("chase.spec_firings")
	mSpecReval    = obs.NewCounter("chase.spec_revalidations")
	mSpecRejected = obs.NewCounter("chase.spec_rejected")
	mRunTime      = obs.NewHistogram("chase.run_seconds", obs.LatencyBuckets)
	// gRound is the live-progress gauge read back by /statusz: the round
	// the chase currently in flight is on, reset to 0 when the run ends so
	// an idle process never reports the previous run's round forever.
	// Within one run only the round loop's goroutine writes it — the
	// parallel trigger-collection and speculative-firing fan-outs happen
	// strictly inside a round and never touch the gauge — so there is no
	// in-run write race; concurrent *runs* overwrite each other
	// last-writer-wins, which is fine for a dashboard.
	gRound = obs.NewGauge(obs.StatusChaseRound)
)

// Per-TGD attribution families: which rule is checking, firing and deriving
// (see internal/obs/attr). IDs are content-addressed by the rule's
// canonical string and cached by rule pointer.
var (
	attrTriggers = attr.NewCounterVec(attr.FamTriggerChecks)
	attrFirings  = attr.NewCounterVec(attr.FamRuleFirings)
	attrDerived  = attr.NewCounterVec(attr.FamFactsDerived)
)

// ruleAttrID resolves (and caches) the attribution ID of a rule. Cold path:
// called once per rule per round, only when attribution is enabled.
func ruleAttrID(r *logic.TGD) attr.ID {
	if id, ok := attr.OwnerID(r); ok {
		return id
	}
	return attr.BindOwner(r, r.String())
}

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
	// TraceQuiet suppresses the run's trace spans entirely. The Π-check
	// worker pool sets it: spans emitted from concurrent workers would
	// interleave nondeterministically in the trace, so those chases stay
	// silent and their time is attributed at the batch level instead.
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

// PrecompilePlans warms the plan caches of the rules — TGD bodies, their
// pinned delta plans (body minus one atom, homo.PinnedPlan) and TGD heads
// (seed-specialized on the frontier variables, which every head check
// binds), and the same rows of the CDDs' ⊥-rules, whose body and pinned
// plans are the CDDs' own (shared with conflict detection and the
// tracker) — against a representative store.
//
// The join order of a plan binds at its first compile, so this must run at a
// deterministic sequential point before any parallel fan-out can compile as
// a side effect: the Π-check worker pool chases per-worker Π-nulled
// instances that differ by the fix under test, and letting the first
// compile race there would tie the chosen order (and the resulting node
// counts) to worker scheduling.
func PrecompilePlans(base *store.Store, tgds []*logic.TGD, cdds []*logic.CDD) {
	compileRules(tgds, cdds, base)
}

// rule is one TGD compiled for the chase: the invariants the round loop
// reads per trigger, resolved once per rule (compiledRule).
type rule struct {
	tgd *logic.TGD
	// front and exist are the frontier and existential variables (the TGD
	// methods compute fresh slices on every call).
	front, exist []logic.Term
	// headPreds is the deduplicated head-predicate list that drives the
	// commit-phase revalidation test.
	headPreds []string
	// body enumerates the triggers of a full round; pinned[i] is the body
	// minus atom i (homo.PinnedPlan), searched after pinning atom i onto a
	// delta fact — nil for a one-atom body, whose pinned atom is the whole
	// match; head is the applicability check, seed-specialized on the
	// frontier variables every check binds.
	body, head *homo.Plan
	pinned     []*homo.Plan
}

// ruleKey is the key of a rule's compiled row in its owner's memo.
type ruleKey struct{}

// compiledRule returns the compiled row of t, building it on first use and
// caching it in owner's memo — t itself, or the CDD of a ⊥-rule, whose
// body is the CDD's, so its body and pinned plans are cached on the CDD and
// shared with conflict detection and the tracker's pins. stats binds the
// join order of plans not compiled before.
func compiledRule(t *logic.TGD, owner homo.Owner, stats *store.Store) *rule {
	if v, ok := owner.Memo().Load(ruleKey{}); ok {
		return v.(*rule)
	}
	r := &rule{tgd: t, front: t.FrontierVars(), exist: t.ExistentialVars()}
	for _, h := range t.Head {
		if !slices.Contains(r.headPreds, h.Pred) {
			r.headPreds = append(r.headPreds, h.Pred)
		}
	}
	r.body = homo.CachedPlanWith(homo.CacheKey{Owner: owner, Tag: homo.TagBody}, t.Body,
		homo.CompileOpts{Stats: stats})
	r.head = homo.CachedPlanWith(homo.CacheKey{Owner: owner, Tag: homo.TagHead}, t.Head,
		homo.CompileOpts{Stats: stats, Prebound: r.front})
	r.pinned = make([]*homo.Plan, len(t.Body))
	if len(t.Body) > 1 {
		for ai := range t.Body {
			r.pinned[ai] = homo.PinnedPlan(owner, t.Body, ai, stats)
		}
	}
	v, _ := owner.Memo().LoadOrStore(ruleKey{}, r)
	return v.(*rule)
}

// ruleSet is a TGD list compiled for the chase, one rule per TGD in order.
// Run and IsConsistentOpt build one per call; a Checker keeps one for as
// long as it lives. Immutable once built, so concurrent chases may share it.
type ruleSet struct {
	rules []*rule
	// byPred maps a predicate to the ascending indexes of the rules with a
	// body atom over it: the rules a delta fact of that predicate can
	// trigger.
	byPred map[string][]int
}

// compileRules builds the rule table of tgds followed by the ⊥-rules of
// cdds, resolving every plan on the calling goroutine — the sequential
// hoist that keeps first compiles (and so join orders) out of the fan-outs.
func compileRules(tgds []*logic.TGD, cdds []*logic.CDD, stats *store.Store) *ruleSet {
	bottom := CompileBottom(cdds)
	rs := &ruleSet{rules: make([]*rule, 0, len(tgds)+len(cdds)), byPred: make(map[string][]int)}
	for _, t := range tgds {
		rs.rules = append(rs.rules, compiledRule(t, t, stats))
	}
	for i, c := range cdds {
		rs.rules = append(rs.rules, compiledRule(bottom[i], c, stats))
	}
	for i, r := range rs.rules {
		for _, a := range r.tgd.Body {
			if ps := rs.byPred[a.Pred]; len(ps) == 0 || ps[len(ps)-1] != i {
				rs.byPred[a.Pred] = append(ps, i)
			}
		}
	}
	return rs
}

// Run computes the restricted chase of the base store under the given TGDs.
// The base store is not modified; the result store is a clone extended with
// derived facts. A trigger (rule, body homomorphism) fires only if the head
// is not already satisfied by an extension of the frontier bindings — the
// standard-chase applicability condition that guarantees termination on
// weakly-acyclic rule sets.
func Run(base *store.Store, tgds []*logic.TGD, opts Options) (*Result, error) {
	// Callers keep the result store, so the chase extends a clone.
	return run(base.Clone(), tgds, opts, "")
}

// RunInPlace is Run on s itself: derived facts are appended to s, which
// becomes the result store, and the facts already there keep their ids,
// values and index entries. A caller that wants s back truncates it to its
// length before the call, on every exit (ErrBudget and a firing error leave
// what was derived so far). RunInPlace is a writer under the store's
// concurrency contract: the caller holds s exclusively for the call.
func RunInPlace(s *store.Store, tgds []*logic.TGD, opts Options) (*Result, error) {
	return run(s, tgds, opts, "")
}

// run chases base in place under tgds, compiled for this call (see
// runRules).
func run(base *store.Store, tgds []*logic.TGD, opts Options, abortPred string) (*Result, error) {
	return runRules(base, compileRules(tgds, nil, base), 0, opts, abortPred)
}

// runRules is the shared, instrumented engine; it extends s in place
// (chaseLoop), starting from the facts with id ≥ from. If abortPred is
// non-empty, the chase stops as soon as a fact with that predicate is
// derived (used by the ⊥ optimization).
func runRules(s *store.Store, rs *ruleSet, from store.FactID, opts Options, abortPred string) (*Result, error) {
	mRuns.Inc()
	tm := obs.StartTimer()
	defer mRunTime.Since(tm)
	if obs.Tracing() && !opts.TraceQuiet {
		sp := obs.StartSpanUnder(opts.TraceParent, "chase.run",
			obs.Int("base_facts", s.Len()), obs.Int("tgds", len(rs.rules)))
		res, err := chaseLoop(s, rs, from, opts, abortPred, sp)
		if res != nil {
			sp.End(obs.Int("rounds", res.Rounds), obs.Int("derived", len(res.Prov)))
		} else {
			sp.End()
		}
		return res, err
	}
	return chaseLoop(s, rs, from, opts, abortPred, obs.Span{})
}

// chaseLoop is the saturation engine. It extends the store it is handed:
// derived facts are appended after the facts already there, whose ids,
// values and index entries it never touches — so a caller that wants the
// store back truncates it (IsConsistentOpt, Checker, the in-place conflict
// scan), and one that keeps the result hands in a clone (Run).
//
// The first round's delta is every fact with id ≥ from, and each later
// round's delta is what the round before derived. Both are a tail of the
// store, because derivations are appended, so a delta is just its lowest
// id. A run from 0 starts with a full round that enumerates every body
// homomorphism; every other round — round ≥ 2 of any run, and every round
// of a continuation from a saturated store — is a delta round, whose
// triggers are the homomorphisms that use a delta fact (collectDelta).
// Facts below the delta were saturated before, so no other trigger can be
// new. Each round has three phases:
//
//  1. Trigger collection — read-only homomorphism searches per TGD against
//     the store as it stood at the start of the round, fanned out over the
//     par worker pool one task per rule and merged in rule order. A trigger
//     that only exists because of a fact derived *within* the current round
//     is picked up next round through the delta (its newest fact is in this
//     round's delta), so nothing is lost by collecting against the round
//     snapshot.
//  2. Speculative firing — the applicability check and head instantiation
//     for every trigger, against the same round-start snapshot, fanned out
//     over the worker pool. Triggers share nothing: the check only reads
//     the snapshot, and invented nulls are named by firing coordinate
//     (round, rule, trigger, existential index — store.NullForCoord)
//     instead of being drawn from a shared counter, so one trigger's
//     result never depends on another's. Output is therefore
//     byte-identical at every worker count.
//  3. Commit — strictly sequential, in (rule, trigger) order. A surviving
//     speculative firing is re-validated against the live store only when
//     a predicate of its head gained facts earlier in the same round; the
//     applicability check reads nothing but head-predicate indexes, so
//     without such an overlap the snapshot answer still stands. This makes
//     the committed facts, their ids and their provenance identical to
//     those of a fully sequential run (the test-only
//     RunSequentialReference).
//
// The round gauge is written only here, between phases, never from the
// workers.
//
// sp is the enclosing chase.run trace span (inert when tracing is off):
// each round emits a chase.round child, so a slow chase decomposes
// round-by-round in the waterfall. Round spans, like all pipeline spans,
// are opened and closed on this goroutine only — the collection workers
// never touch the tracer — which keeps the trace byte-identical across
// worker counts.
func chaseLoop(s *store.Store, rs *ruleSet, from store.FactID, opts Options, abortPred string, sp obs.Span) (*Result, error) {
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

	for lo := from; int(lo) < s.Len(); {
		res.Rounds++
		mRounds.Inc()
		gRound.Set(int64(res.Rounds))
		flight.Record(flight.KindChaseRoundStart, int64(res.Rounds), int64(s.Len()-int(lo)), 0, 0)
		flight.ObserveChaseRound(res.Rounds, opts.maxRounds())
		rsp := sp.Child("chase.round")
		if res.Rounds > opts.maxRounds() {
			// Balance the just-emitted round-start event: every exit path
			// owes a round-end, marked with why the round ended early.
			flight.RecordNote4(flight.KindChaseRoundEnd, int64(res.Rounds), 0, 0, 0, flight.RoundStatusBudget)
			rsp.End()
			return res, fmt.Errorf("%w: more than %d rounds", ErrBudget, opts.maxRounds())
		}
		perRule := rs.collect(s, lo)
		// Every trigger of round ≥ 2 involves a fact derived the round
		// before: it was deferred across the round-start snapshot boundary.
		var deferred int64
		if res.Rounds > 1 {
			for _, ms := range perRule {
				deferred += int64(len(ms))
			}
			mDeferred.Add(deferred)
		}
		// The next round's delta starts after this round's snapshot.
		lo = store.FactID(s.Len())
		// Phase 2 — speculative firing against the round-start snapshot,
		// fanned out over the worker pool in flattened (rule, trigger)
		// order. Attribution IDs are resolved up front (the resolve may
		// intern, which takes a lock) so workers only do atomic adds.
		var flatRule, flatTrig []int
		for ri := range rs.rules {
			for ti := range perRule[ri] {
				flatRule = append(flatRule, ri)
				flatTrig = append(flatTrig, ti)
			}
		}
		rids := make([]attr.ID, len(rs.rules))
		if attr.Enabled() {
			for ri := range rs.rules {
				if len(perRule[ri]) > 0 {
					rids[ri] = ruleAttrID(rs.rules[ri].tgd)
				}
			}
		}
		specs := par.MapNamed("chase.spec", len(flatRule), func(k int) specFiring {
			ri, ti := flatRule[k], flatTrig[k]
			return speculate(s, rs.rules[ri], rids[ri], perRule[ri][ti], res.Rounds, ri, ti)
		})

		// Phase 3 — sequential commit in the same (rule, trigger) order the
		// old engine fired in. roundPreds tracks which predicates gained
		// facts this round; only a head overlapping it needs re-validation
		// against the live store.
		var derived int
		var firings int64
		roundPreds := make(map[string]bool)
		for k, f := range specs {
			if !f.ok {
				continue
			}
			ri := flatRule[k]
			r := rs.rules[ri]
			overlap := false
			for _, p := range r.headPreds {
				if roundPreds[p] {
					overlap = true
					break
				}
			}
			if overlap {
				mSpecReval.Inc()
				if r.head.ExistsSeeded(s, f.frontier) {
					mSpecRejected.Inc()
					continue
				}
			}
			if budget-len(res.Prov) < len(r.tgd.Head) {
				flight.RecordNote4(flight.KindChaseRoundEnd, int64(res.Rounds), int64(derived), deferred, firings, flight.RoundStatusBudget)
				rsp.End()
				return res, ErrBudget
			}
			mFirings.Inc()
			attrFirings.Add(rids[ri], 1)
			mNulls.Add(int64(f.nulls))
			ids, err := s.AddBatch(f.atoms)
			if err != nil {
				flight.RecordNote4(flight.KindChaseRoundEnd, int64(res.Rounds), int64(derived), deferred, firings, flight.RoundStatusError)
				rsp.End()
				return res, fmt.Errorf("chase: firing %s: %w", r.tgd, err)
			}
			firings++
			mDerived.Add(int64(len(ids)))
			attrDerived.Add(rids[ri], int64(len(ids)))
			parents := perRule[ri][flatTrig[k]].Facts
			for i, id := range ids {
				res.Prov[id] = Derivation{Rule: r.tgd, Parents: parents, HeadIdx: i}
				derived++
				roundPreds[f.atoms[i].Pred] = true
				if abortPred != "" && f.atoms[i].Pred == abortPred {
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
		flight.Record(flight.KindChaseRoundEnd, int64(res.Rounds), int64(derived), deferred, firings)
		if rsp.Live() {
			rsp.End(obs.Int("round", res.Rounds),
				obs.Int("derived", derived),
				obs.Int64("firings", firings))
		}
	}
	return res, nil
}

// collect gathers every rule's triggers against the round-start snapshot,
// one read-only task per rule over the worker pool, merged in rule order.
// From 0 it is a full round: every body homomorphism is a trigger.
// Otherwise the triggers are the homomorphisms that use a delta fact (id ≥
// lo), and only rules with a body predicate among the delta's are searched.
func (rs *ruleSet) collect(s *store.Store, lo store.FactID) [][]homo.Match {
	if lo == 0 {
		return par.MapNamed("chase.collect", len(rs.rules), func(i int) []homo.Match {
			return collectAll(s, rs.rules[i].body)
		})
	}
	preds := make(map[string]bool)
	var cand []int
	for id := lo; int(id) < s.Len(); id++ {
		p := s.FactRef(id).Pred
		if preds[p] {
			continue
		}
		preds[p] = true
		for _, ri := range rs.byPred[p] {
			if !slices.Contains(cand, ri) {
				cand = append(cand, ri)
			}
		}
	}
	slices.Sort(cand)
	found := par.MapNamed("chase.collect", len(cand), func(k int) []homo.Match {
		return collectDelta(s, rs.rules[cand[k]], lo)
	})
	perRule := make([][]homo.Match, len(rs.rules))
	for k, ri := range cand {
		perRule[ri] = found[k]
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
// one body atom onto a delta fact (id ≥ lo) by pinned delta collection:
// each body atom is pinned onto each delta fact of its predicate (bound by
// homo.BindAtom) and the rest of the body is searched with the pinned plan.
// A homomorphism with several body atoms on delta facts is found once per
// such atom; it is kept only under the lowest, so each trigger is collected
// once. The work is proportional to what the delta can join with, not to
// the rule's matches over the whole store. It only reads the store, so the
// per-rule calls of one round may run concurrently.
func collectDelta(s *store.Store, r *rule, lo store.FactID) []homo.Match {
	var out []homo.Match
	for ai, ba := range r.tgd.Body {
		// A predicate's list only grows by appends and shrinks by Truncate,
		// so it is in id order and its delta facts are a suffix.
		ids := s.CandidatesByPred(ba.Pred)
		ids = ids[sort.Search(len(ids), func(k int) bool { return ids[k] >= lo }):]
		for _, d := range ids {
			seed, ok := homo.BindAtom(ba, s.FactRef(d))
			if !ok {
				continue
			}
			if r.pinned[ai] == nil {
				out = append(out, homo.Match{Subst: seed, Facts: []store.FactID{d}})
				continue
			}
			r.pinned[ai].ForEachSeeded(s, seed, func(m homo.Match) bool {
				// The pinned plan's atoms are the body's without atom ai,
				// in body order, so m.Facts[:ai] are body atoms 0..ai-1.
				for _, f := range m.Facts[:ai] {
					if f >= lo {
						return true
					}
				}
				facts := make([]store.FactID, 0, len(r.tgd.Body))
				facts = append(append(append(facts, m.Facts[:ai]...), d), m.Facts[ai:]...)
				out = append(out, homo.Match{Subst: m.Subst.Clone(), Facts: facts})
				return true
			})
		}
	}
	return out
}

// specFiring is the speculative phase's verdict on one trigger: either a
// skip (head already satisfied at the round-start snapshot) or a fully
// instantiated head — safe(H) with coordinate-named nulls — ready to commit.
type specFiring struct {
	ok       bool
	frontier logic.Subst
	atoms    []logic.Atom
	nulls    int
}

// speculate runs the restricted-chase applicability check and the head
// instantiation for one trigger against the round-start snapshot. It only
// reads the store and shares nothing mutable with other triggers, so the
// per-trigger calls of one round may run concurrently (head plans keep
// per-search state in a pool). Invented nulls are named by the firing
// coordinate via store.NullForCoord, so their labels do not depend on which
// other triggers fire, or in what order.
func speculate(s *store.Store, r *rule, rid attr.ID, m homo.Match, round, ri, ti int) specFiring {
	mTriggers.Inc()
	attrTriggers.Add(rid, 1)
	frontier := m.Subst.Restrict(r.front)
	if r.head.ExistsSeeded(s, frontier) {
		return specFiring{}
	}
	mSpecFirings.Inc()
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
	return specFiring{ok: true, frontier: frontier, atoms: atoms, nulls: len(r.exist)}
}

// IsConsistentNaive runs the full chase and then evaluates every CDD body on
// the chased store — the paper's CheckConsistency. It returns whether the KB
// is consistent.
func IsConsistentNaive(base *store.Store, tgds []*logic.TGD, cdds []*logic.CDD, opts Options) (bool, error) {
	res, err := Run(base, tgds, opts)
	if err != nil {
		return false, err
	}
	for _, c := range cdds {
		if homo.CachedPlanWith(homo.CacheKey{Owner: c, Tag: homo.TagBody}, c.Body,
			homo.CompileOpts{Stats: res.Store}).Exists(res.Store) {
			return false, nil
		}
	}
	return true, nil
}

// BottomPred is the reserved predicate used by the ⊥ optimization. It cannot
// clash with user predicates because the parser rejects "!" as an
// identifier.
const BottomPred = "⊥"

// bottomKey is the key of a CDD's ⊥-rule in the CDD's memo.
type bottomKey struct{}

// CompileBottom turns CDDs into TGDs with head ⊥() so that the chase itself
// detects inconsistency (CheckConsistency-Opt, §5). The returned rules are
// memoized in each CDD's memo: repeated calls yield pointer-identical TGDs,
// which derivations and per-rule attribution name.
func CompileBottom(cdds []*logic.CDD) []*logic.TGD {
	out := make([]*logic.TGD, len(cdds))
	for i, c := range cdds {
		if v, ok := c.Memo().Load(bottomKey{}); ok {
			out[i] = v.(*logic.TGD)
			continue
		}
		t := &logic.TGD{
			Label: "⊥:" + c.Label,
			Body:  append([]logic.Atom(nil), c.Body...),
			Head:  []logic.Atom{logic.NewAtom(BottomPred)},
		}
		v, _ := c.Memo().LoadOrStore(bottomKey{}, t)
		out[i] = v.(*logic.TGD)
	}
	return out
}

// RelevantTGDs returns the TGDs that can (transitively) contribute to a
// CDD violation: starting from the predicates in CDD bodies, a TGD is
// relevant if its head mentions a relevant predicate, and then its body
// predicates become relevant too. Facts derived by irrelevant TGDs can
// never appear in — or feed a derivation that appears in — a CDD-body
// homomorphism, so consistency checking and conflict detection may safely
// chase only the relevant rules. The result preserves input order.
func RelevantTGDs(tgds []*logic.TGD, cdds []*logic.CDD) []*logic.TGD {
	relevant := make(map[string]bool)
	for _, c := range cdds {
		for _, a := range c.Body {
			relevant[a.Pred] = true
		}
	}
	selected := make([]bool, len(tgds))
	for changed := true; changed; {
		changed = false
		for i, t := range tgds {
			if selected[i] {
				continue
			}
			hit := false
			for _, h := range t.Head {
				if relevant[h.Pred] {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
			selected[i] = true
			changed = true
			for _, b := range t.Body {
				if !relevant[b.Pred] {
					relevant[b.Pred] = true
				}
			}
		}
	}
	out := make([]*logic.TGD, 0, len(tgds))
	for i, t := range tgds {
		if selected[i] {
			out = append(out, t)
		}
	}
	return out
}

// IsConsistentOpt is CheckConsistency-Opt: it chases with CDDs compiled to
// ⊥-rules — restricted to the TGDs relevant to the CDDs — and stops as
// early as possible. It returns whether the KB is consistent. It compiles a
// Checker for the one call; callers checking many stores under the same
// rules keep one (see Checker.Consistent for the in-place contract).
func IsConsistentOpt(base *store.Store, tgds []*logic.TGD, cdds []*logic.CDD, opts Options) (bool, error) {
	return NewChecker(tgds, cdds, base).Consistent(base, opts)
}

// Checker is CheckConsistency-Opt compiled once for a rule set: the CDD
// bodies, for the check that needs no chase, and the chase table of the
// TGDs relevant to the CDDs followed by the CDDs' ⊥-rules. Besides the
// one-shot check it offers saturate-then-continue checking: Saturate chases
// a store once, and ConsistentWith decides a store extended by one fact by
// chasing on from that fact only. Immutable, so concurrent checks on
// distinct stores may share it.
type Checker struct {
	// rules is the relevant TGDs — the first tgds rules — followed by the
	// CDDs' ⊥-rules, whose body plans are the CDD bodies.
	tgds  int
	rules *ruleSet
}

// NewChecker compiles the check. stats binds the join order of plans not
// compiled before (see PrecompilePlans).
func NewChecker(tgds []*logic.TGD, cdds []*logic.CDD, stats *store.Store) *Checker {
	tgds = RelevantTGDs(tgds, cdds)
	return &Checker{tgds: len(tgds), rules: compileRules(tgds, cdds, stats)}
}

// HasTGDs reports whether a TGD is relevant to the CDDs — whether Saturate
// and ConsistentWith chase. Without one, s is consistent iff no CDD body
// maps into it.
func (c *Checker) HasTGDs() bool { return c.tgds > 0 }

// ViolatedAt reports whether a CDD body maps into s with one of its atoms
// on the fact id — whether s has a violation that uses that fact, found by
// pinning each body atom onto it as delta collection does.
func (c *Checker) ViolatedAt(s *store.Store, id store.FactID) bool {
	a := s.FactRef(id)
	for _, ri := range c.rules.byPred[a.Pred] {
		if ri < c.tgds {
			continue
		}
		r := c.rules.rules[ri]
		for ai, ba := range r.tgd.Body {
			seed, ok := homo.BindAtom(ba, a)
			if ok && (r.pinned[ai] == nil || r.pinned[ai].ExistsSeeded(s, seed)) {
				return true
			}
		}
	}
	return false
}

// violatedAsIs reports whether a CDD body maps into s without chasing.
func (c *Checker) violatedAsIs(s *store.Store) bool {
	for i := c.tgds; i < len(c.rules.rules); i++ {
		if c.rules.rules[i].body.Exists(s) {
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
	return c.chase(s, 0, opts)
}

// chase runs the ⊥-aborting chase on s from fact id from and reports
// whether it ended without deriving ⊥.
func (c *Checker) chase(s *store.Store, from store.FactID, opts Options) (bool, error) {
	res, err := runRules(s, c.rules, from, opts, BottomPred)
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
// Like Consistent it is a writer, and the caller truncates the saturation
// away before modifying any fact of s in place.
func (c *Checker) Saturate(s *store.Store, opts Options) (bool, error) {
	if c.violatedAsIs(s) {
		return false, nil
	}
	if c.tgds == 0 {
		// Without a TGD, s is its own fixpoint.
		return true, nil
	}
	n := s.Len()
	ok, err := c.chase(s, 0, opts)
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
	return c.chase(s, id, opts)
}

// Answers computes the certain answers of a conjunctive query (body with
// distinguished variables answVars) over the KB (F, ΣT): it chases F and
// evaluates the query on the result, keeping only the all-constant tuples —
// the paper's Q(F, ΣT).
func Answers(base *store.Store, tgds []*logic.TGD, body []logic.Atom, answVars []logic.Term, opts Options) ([][]logic.Term, error) {
	res, err := Run(base, tgds, opts)
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
