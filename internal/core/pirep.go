package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"kbrepair/internal/chase"
	"kbrepair/internal/conflict"
	"kbrepair/internal/homo"
	"kbrepair/internal/logic"
	"kbrepair/internal/obs"
	"kbrepair/internal/obs/attr"
	"kbrepair/internal/obs/flight"
	"kbrepair/internal/par"
	"kbrepair/internal/store"
)

// Π-repairability instrumentation: how question filtering splits between
// the Π-RepOpt fast path and full Algorithm 1 runs, and what the full runs
// cost. The PiChecker's own FastHits/FullChecks fields remain the
// per-session view used by the ablation tables.
var (
	mPiFast      = obs.NewCounter("core.pi_fast_hits")
	mPiFull      = obs.NewCounter("core.pi_full_checks")
	mPiCheckTime = obs.NewHistogram("core.pi_check_seconds", obs.LatencyBuckets)
	mCFixChecks  = obs.NewCounter("core.cfix_checks")
)

// Per-cause attribution families: Π-check work billed to the CDD whose
// conflict triggered the question being filtered (see PiChecker.SetCause).
var (
	attrPiFast = attr.NewCounterVec(attr.FamPiFastHits)
	attrPiFull = attr.NewCounterVec(attr.FamPiFullChecks)
	attrPiTime = attr.NewHistogramVec(attr.FamPiCheckSeconds, obs.LatencyBuckets)
)

// Position aliases store.Position; it is re-exported here because the core
// API (fixes, Π sets) speaks in positions constantly.
type Position = store.Position

// Pi is a set of immutable positions Π ⊆ pos(F).
type Pi map[Position]bool

// NewPi builds a Π set from positions.
func NewPi(ps ...Position) Pi {
	pi := make(Pi, len(ps))
	for _, p := range ps {
		pi[p] = true
	}
	return pi
}

// Clone returns a copy of the set.
func (pi Pi) Clone() Pi {
	out := make(Pi, len(pi))
	for p := range pi {
		out[p] = true
	}
	return out
}

// With returns a copy extended with p.
func (pi Pi) With(p Position) Pi {
	out := pi.Clone()
	out[p] = true
	return out
}

// Add inserts p in place.
func (pi Pi) Add(p Position) { pi[p] = true }

// Has reports membership.
func (pi Pi) Has(p Position) bool { return pi[p] }

// nulledCopy builds the Algorithm 1 instance in one pass: a store with the
// same fact ids where every position outside Π holds the fresh existential
// variable attributed to it (store.NullForPos, escaped against the source
// store, so it can join with nothing) and Π positions keep their values.
// PiChecker builds each of its session instances with it once; the one-shot
// PiRepairable / PiRepairableNaive build one per call.
func nulledCopy(facts *store.Store, pi Pi) *store.Store {
	out := store.New()
	for _, id := range facts.IDs() {
		a := facts.Fact(id)
		for i := range a.Args {
			if p := (Position{Fact: id, Arg: i}); !pi.Has(p) {
				a.Args[i] = facts.NullForPos(p)
			}
		}
		out.MustAdd(a)
	}
	return out
}

// validPos reports whether p is a position of the fact store.
func validPos(facts *store.Store, p Position) bool {
	return p.Arg >= 0 && facts.Valid(p.Fact) && p.Arg < facts.Arity(p.Fact)
}

// instance is a session-owned Algorithm 1 instance: nulledCopy(facts, pi)
// kept up to date in place instead of rebuilt for every batch.
type instance struct {
	s  *store.Store // nil until the slot is first used
	pi Pi           // the Π whose positions hold their values from F in s
}

// sync brings the instance to (facts, pi) by diff: a position in pi gets
// its current value in facts, and a position that left Π (opti-prop's
// release) gets facts.NullForPos back. Changed positions are written in
// position order, so a session's index lists — and with them search order
// and node counts — do not depend on map iteration. The first use, or a
// fact store that gained facts, builds the instance with nulledCopy. sync
// returns the positions it wrote, or rebuilt when it built the instance.
//
// The result equals nulledCopy(facts, pi) up to a renaming of nulls, which
// Algorithm 1's verdict does not see. Nulls at positions that stayed
// outside Π keep the labels they were given, while NullForPos's escape may
// drift as answers remove values from facts; they stay fresh because a
// value enters facts only as an answer — either one already in facts or
// the answered position's own fresh null, which moves that position into
// Π — and labels of distinct positions never meet.
func (in *instance) sync(facts *store.Store, pi Pi) (changed []Position, rebuilt bool) {
	if in.s == nil || in.s.Len() != facts.Len() {
		in.s, in.pi = nulledCopy(facts, pi), pi.Clone()
		return nil, true
	}
	for p := range in.pi {
		if !pi.Has(p) {
			delete(in.pi, p)
			if validPos(facts, p) {
				changed = append(changed, p)
			}
		}
	}
	for p := range pi {
		if !validPos(facts, p) {
			continue
		}
		in.pi[p] = true
		if in.s.Value(p) != facts.Value(p) {
			changed = append(changed, p)
		}
	}
	slices.SortFunc(changed, func(a, b Position) int {
		return cmp.Or(cmp.Compare(a.Fact, b.Fact), cmp.Compare(a.Arg, b.Arg))
	})
	for _, p := range changed {
		if in.pi.Has(p) {
			in.s.MustSetValue(p, facts.Value(p))
		} else {
			in.s.MustSetValue(p, facts.NullForPos(p))
		}
	}
	return changed, false
}

// PiRepairable implements Algorithm 1 (Π-REP): every position outside Π is
// replaced by a fresh existential variable, and the resulting KB is checked
// for consistency. K is Π-repairable iff that KB is consistent
// (Proposition 3.8). The input KB is not modified.
func PiRepairable(kb *KB, pi Pi) (bool, error) {
	return chase.IsConsistentOpt(nulledCopy(kb.Facts, pi), kb.TGDs, kb.CDDs, kb.ChaseOpts)
}

// PiRepairableNaive is Algorithm 1 with the unoptimized consistency check
// (full chase, then CDD evaluation). Kept for the ablation benchmarks.
func PiRepairableNaive(kb *KB, pi Pi) (bool, error) {
	return chase.IsConsistentNaive(nulledCopy(kb.Facts, pi), kb.TGDs, kb.CDDs, kb.ChaseOpts)
}

// PiChecker performs the repeated Π-repairability checks of question
// generation, with the Π-RepOpt fast path of §5. Create one per KB/session;
// it caches the set of constants appearing in the rules, and it owns the
// session's Π-nulled instances: one per worker slot of the full-check
// fan-out, built once and then synced to (kb.Facts, Π) at the start of each
// batch that needs it, so a full check costs what it derives, not a copy of
// the store.
type PiChecker struct {
	kb        *KB
	ruleConst map[logic.Term]bool
	// Optimized disables the fast path when false (ablation).
	Optimized bool
	// FastHits / FullChecks count how often each path ran (observability
	// for the ablation benchmarks).
	FastHits   int
	FullChecks int
	// cddOnly reports that no TGD is relevant to the CDDs, which makes
	// optimized full checks fix-local; local is their state, built by the
	// first batch that needs it.
	cddOnly bool
	local   *fixLocal
	// slots[g] is the Π-nulled instance chunk g of a batch checks on. Only
	// chunk g's goroutine touches it during a batch.
	slots []*instance
	// cause is the attribution ID of the CDD whose conflict caused the
	// current batch (attr.None when unknown). Atomic because checkChunk
	// reads it from worker goroutines.
	cause atomic.Int32
	// traceParent is the span id subsequent core.pi_batch spans are
	// parented under (0 for roots). Atomic for the same reason as cause:
	// set by the engine goroutine, consistent to read anywhere.
	traceParent atomic.Uint64
}

// SetCause attributes subsequent Π-check work to the given ID — the inquiry
// engine sets it to the causing conflict's CDD before each SOUNDQUESTION.
func (pc *PiChecker) SetCause(id attr.ID) { pc.cause.Store(int32(id)) }

// SetTraceParent parents subsequent Π-batch trace spans under the given
// span id — the inquiry engine points it at the question-generation span
// before each SOUNDQUESTION, mirroring SetCause.
func (pc *PiChecker) SetTraceParent(id uint64) { pc.traceParent.Store(id) }

// NewPiChecker builds a checker for the KB with the optimization enabled.
// It also warms the plan cache for every rule body against the KB's base
// store: the checker's full checks fan out across workers on per-slot
// instances, and a first compile racing in a worker would bind join orders
// to whichever instance won — warming here keeps orders deterministic.
func NewPiChecker(kb *KB) *PiChecker {
	chase.PrecompilePlans(kb.Facts, kb.TGDs, kb.CDDs)
	pc := &PiChecker{kb: kb, ruleConst: make(map[logic.Term]bool), Optimized: true,
		cddOnly: len(chase.RelevantTGDs(kb.TGDs, kb.CDDs)) == 0}
	pc.cause.Store(int32(attr.None))
	collect := func(as []logic.Atom) {
		for _, a := range as {
			for _, t := range a.Args {
				if t.IsConst() {
					pc.ruleConst[t] = true
				}
			}
		}
	}
	for _, r := range kb.TGDs {
		collect(r.Body)
		collect(r.Head)
	}
	for _, c := range kb.CDDs {
		collect(c.Body)
	}
	return pc
}

// CheckWithFix decides whether K′ = (apply(F, {f}), ΣT, ΣC) is
// Π′-repairable for Π′ = Π ∪ {f.Pos} — the filtering condition in the loop
// of Algorithm 2 (SOUNDQUESTION, line 13).
//
// Fast path (Π-RepOpt, §5, soundness-hardened per DESIGN.md §3): given that
// K is already Π-repairable, the answer is yes without running a chase when
// the fix value
//
//   - is a labeled null that occurs nowhere in the store (fresh, uniquely
//     attributed to the position — Lemma 4.3(3)); or
//   - is a constant that neither appears at any Π position nor occurs as a
//     constant in any rule. In the Π-nulled instance all remaining values
//     are unique nulls, so such a constant cannot complete any join that a
//     fresh null could not.
//
// Otherwise the full Algorithm 1 check runs on apply(F, {f}).
func (pc *PiChecker) CheckWithFix(pi Pi, f Fix) (bool, error) {
	res, err := pc.CheckBatch(pi, []Fix{f})
	if err != nil {
		return false, err
	}
	return res[0], nil
}

// CheckBatch decides Π′-repairability for a batch of single-fix updates
// sharing the same Π (the filtering loop of one SOUNDQUESTION call). Every
// fix position is validated first. The fast path handles most fixes
// sequentially; the remaining full Algorithm 1 checks run on the checker's
// session instances — fix-local and inline when no TGD is relevant to the
// CDDs, otherwise fanned out across the worker pool one instance per chunk
// — with verdicts written by fix index so the result — and therefore
// question order — is byte-identical at every worker count.
func (pc *PiChecker) CheckBatch(pi Pi, fixes []Fix) ([]bool, error) {
	for _, f := range fixes {
		if !validPos(pc.kb.Facts, f.Pos) {
			return nil, fmt.Errorf("pirep: position %s out of range", f.Pos)
		}
	}
	out := make([]bool, len(fixes))
	var fastHits, accepted int64
	var full []int
	// One span covers the whole batch: the full checks run inside worker
	// goroutines with their chases silenced (TraceQuiet), so Π time is
	// attributed here, at batch granularity, deterministically.
	var sp obs.Span
	if obs.Tracing() {
		sp = obs.StartSpanUnder(pc.traceParent.Load(), "core.pi_batch",
			obs.Int("batch", len(fixes)))
	}
	defer func() {
		flight.Record(flight.KindPiBatch, fastHits, int64(len(full)), accepted, 0)
		if sp.Live() {
			sp.End(obs.Int64("fast_hits", fastHits),
				obs.Int("full_checks", len(full)),
				obs.Int64("accepted", accepted))
		}
	}()
	cause := attr.ID(pc.cause.Load())
	var piVals map[logic.Term]int
	if pc.Optimized {
		piVals = piValues(pc.kb.Facts, pi)
	}
	for i, f := range fixes {
		if pc.Optimized && pc.fastSafe(pi, piVals, f) {
			pc.FastHits++
			mPiFast.Inc()
			fastHits++
			out[i] = true
			continue
		}
		full = append(full, i)
	}
	attrPiFast.Add(cause, fastHits)
	pc.FullChecks += len(full)
	mPiFull.Add(int64(len(full)))
	attrPiFull.Add(cause, int64(len(full)))
	if err := pc.runFullChecks(pi, fixes, full, out); err != nil {
		return nil, err
	}
	for _, ok := range out {
		if ok {
			accepted++
		}
	}
	return out, nil
}

// runFullChecks runs the full Algorithm 1 checks of a batch (fix indices in
// full). With one worker, a single check or fix-local verdicts, everything
// runs inline on slot 0's instance. Otherwise the indices split
// into at most Workers() contiguous chunks, chunk g on slot g's instance
// (checks only read pc.kb and mutate their own instance, so they are
// independent). Verdicts land in out by fix index, never by completion
// order.
func (pc *PiChecker) runFullChecks(pi Pi, fixes []Fix, full []int, out []bool) error {
	if len(full) == 0 {
		return nil
	}
	w := min(par.Workers(), len(full))
	for len(pc.slots) < w {
		pc.slots = append(pc.slots, &instance{})
	}
	var local *fixLocal
	if pc.Optimized && pc.cddOnly {
		if pc.local == nil {
			// Compiled on this goroutine, so no worker binds a pinned
			// plan's join order (the tracker shares these plans).
			pc.local = &fixLocal{pins: conflict.NewPins(pc.kb.CDDs, pc.kb.Facts)}
		}
		local = pc.local
		changed, rebuilt := pc.slots[0].sync(pc.kb.Facts, pi)
		local.refresh(pc.slots[0].s, pc.kb.CDDs, changed, rebuilt)
	} else if pc.local != nil {
		// Slot 0 may change below without the summary seeing it.
		pc.local.known = false
	}
	if w <= 1 || local != nil {
		// Fix-local verdicts cost a few pinned searches each: a fan-out
		// (and a second instance to keep in sync) would cost more.
		return pc.checkChunk(pc.slots[0], pi, fixes, full, out, local)
	}
	chunks := make([][]int, 0, w)
	for g := 0; g < w; g++ {
		lo, hi := g*len(full)/w, (g+1)*len(full)/w
		if lo < hi {
			chunks = append(chunks, full[lo:hi])
		}
	}
	errs := par.MapNamed("core.pi", len(chunks), func(g int) error {
		return pc.checkChunk(pc.slots[g], pi, fixes, chunks[g], out, local)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// checkChunk syncs the slot's instance to (kb.Facts, Π) and decides each
// fix index in idxs on it.
func (pc *PiChecker) checkChunk(in *instance, pi Pi, fixes []Fix, idxs []int, out []bool, local *fixLocal) error {
	in.sync(pc.kb.Facts, pi)
	cause := attr.ID(pc.cause.Load())
	// Chunks may run on worker goroutines: their chases stay out of the
	// trace (interleaved spans from racing workers would make the trace
	// depend on the worker count). CheckBatch's pi_batch span carries the
	// batch's time instead.
	opts := pc.kb.ChaseOpts
	opts.TraceQuiet = true
	for _, i := range idxs {
		tm := obs.StartTimer()
		ok, err := pc.verdict(in.s, fixes[i], local, opts)
		mPiCheckTime.Since(tm)
		attrPiTime.Since(cause, tm)
		if err != nil {
			return err
		}
		out[i] = ok
	}
	return nil
}

// verdict runs Algorithm 1 for one fix on a synced instance and leaves the
// instance as it found it. Algorithm 1 on (apply(F,{f}), Π ∪ {f.Pos}) is
// exactly the nulled instance with the fix value at the fix position. (Π
// positions of the instance keep their values; f.Pos is outside Π in every
// SOUNDQUESTION call, and if it were inside, setting it still realizes the
// hypothetical update.) With local set the verdict is fix-local; otherwise
// it is the in-place consistency check, which truncates its chase away.
func (pc *PiChecker) verdict(s *store.Store, f Fix, local *fixLocal, opts chase.Options) (bool, error) {
	if local != nil && local.avoids(f.Pos.Fact) {
		return false, nil
	}
	prev := s.MustSetValue(f.Pos, f.Value)
	defer s.MustSetValue(f.Pos, prev)
	if local != nil {
		return !local.pins.Violated(s, f.Pos.Fact), nil
	}
	return chase.IsConsistentOpt(s, pc.kb.TGDs, pc.kb.CDDs, opts)
}

// fixLocal is the state of the fix-local verdict, used when no TGD is
// relevant to the CDDs (so consistency is "no CDD body maps into the
// instance") and the fast path is on: the CDDs' pinned plans and a summary
// of the violations of slot 0's unmodified instance I. It needs no
// Π-repairability premise, because opti-prop pins positions without
// verifying them, so I may itself be violated.
//
// Soundness: the fixed instance I′ differs from I only at fact F. A
// violation of I′ either avoids F — then it maps onto facts unchanged from
// I, so it is a violation of I that avoids F — or uses F, and then pinning
// the body atom that maps onto F finds it. So I′ is consistent iff no
// violation of I avoids F and the pinned searches at F find nothing in I′;
// the first half is read off the facts common to all of I's violations.
type fixLocal struct {
	pins *conflict.Pins
	// known reports that violated/common describe slot 0's instance as it
	// stands; violated reports whether it has a violation, and common
	// holds the facts every one of its violations uses.
	known    bool
	violated bool
	common   []store.FactID
}

// refresh brings the violation summary up to date with s, slot 0's
// instance after a sync that changed the given positions (or rebuilt it).
// By the argument above, applied to the sync's changes: when I had no
// violation before the sync, a violation of I now uses a changed fact, so
// pinned searches at the changed facts decide whether I is still clean.
// Otherwise the violations of s are enumerated, stopping once no fact is
// common to all of them.
func (fl *fixLocal) refresh(s *store.Store, cdds []*logic.CDD, changed []Position, rebuilt bool) {
	if fl.known && !rebuilt && !fl.violated &&
		!slices.ContainsFunc(changed, func(p Position) bool { return fl.pins.Violated(s, p.Fact) }) {
		return
	}
	fl.known, fl.violated, fl.common = true, false, fl.common[:0]
	for _, c := range cdds {
		if fl.violated && len(fl.common) == 0 {
			break
		}
		plan := homo.CachedPlanWith(homo.CacheKey{Owner: c, Tag: homo.TagBody}, c.Body,
			homo.CompileOpts{Stats: s})
		plan.ForEach(s, func(m homo.Match) bool {
			if !fl.violated {
				fl.violated = true
				fl.common = append(fl.common, m.Facts...)
			} else {
				fl.common = slices.DeleteFunc(fl.common, func(id store.FactID) bool {
					return !slices.Contains(m.Facts, id)
				})
			}
			return len(fl.common) > 0
		})
	}
}

// avoids reports whether some violation of the unmodified instance avoids
// fact id, which then survives any fix at it.
func (fl *fixLocal) avoids(id store.FactID) bool {
	return fl.violated && !slices.Contains(fl.common, id)
}

// piValues counts the values at the Π positions — the values a constant
// fix could join with in the Π-nulled instance.
func piValues(facts *store.Store, pi Pi) map[logic.Term]int {
	vals := make(map[logic.Term]int, len(pi))
	for p := range pi {
		if validPos(facts, p) {
			vals[facts.Value(p)]++
		}
	}
	return vals
}

// fastSafe reports whether the fix value is provably harmless (see
// CheckWithFix); piVals is piValues(F, pi).
func (pc *PiChecker) fastSafe(pi Pi, piVals map[logic.Term]int, f Fix) bool {
	v := f.Value
	switch v.Kind {
	case logic.Null:
		// Safe iff the null occurs nowhere in the current store: being at
		// the fixed position itself is impossible since a fix must change
		// the value, and uniqueness makes it joinless.
		return !pc.occursInStore(v)
	case logic.Const:
		if pc.ruleConst[v] {
			return false
		}
		// v must not sit at any Π position other than the fix's own. It
		// may freely occur at non-Π positions, which are nulled in the
		// hypothetical instance. A single-atom CDD with a repeated variable
		// could still be triggered by v joining with itself inside one
		// atom if another position of the *same fact* is in Π with value
		// v — covered by the Π count as well. Safe.
		n := piVals[v]
		if pi.Has(f.Pos) && pc.kb.Facts.Value(f.Pos) == v {
			n--
		}
		return n == 0
	default:
		return false
	}
}

func (pc *PiChecker) occursInStore(t logic.Term) bool {
	return pc.kb.Facts.OccursAnywhere(t)
}
