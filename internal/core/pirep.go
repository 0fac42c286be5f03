package core

import (
	"cmp"
	"fmt"
	"slices"

	"kbrepair/internal/chase"
	"kbrepair/internal/logic"
	"kbrepair/internal/obs"
	"kbrepair/internal/obs/attr"
	"kbrepair/internal/obs/flight"
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
// PiChecker builds its session instance with it once; the one-shot
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
// kept up to date in place instead of rebuilt for every batch, optionally
// followed by the derived facts of its saturation, which syncs keep up to
// date too where the homomorphism argument of DESIGN.md §3 allows.
type instance struct {
	s  *store.Store // nil until the instance is first used
	pi Pi           // the Π whose positions hold their values from F in s
	// n is the number of facts of F the instance holds: s's first n facts
	// are the nulled copy, and any facts after them are derived.
	n int
	// saturated reports that s is a saturation of its first n facts I
	// under the checker's rules: chase(I) (Checker.Saturate), or a store
	// kept for it across syncs that contains I, is a model and maps into
	// chase(I) fixing I's terms — or, with violated, that s holds ⊥.
	saturated, violated bool
}

// sync brings the instance to (facts, pi) by diff: a position in pi gets
// its current value in facts, and a position that left Π (opti-prop's
// release) gets facts.NullForPos back. Changed positions are written in
// position order, so a session's index lists — and with them search order
// and node counts — do not depend on map iteration. The first use, or a
// fact store that gained facts, builds the instance with nulledCopy,
// without a saturation.
//
// A saturation survives a sync that changes nothing, and one that only
// moves positions into Π: each such position p trades its own null n_p for
// its value v_p in F, and sync applies h = {n_p ↦ v_p} to every fact that
// holds n_p, derived ones included. When the rules have no relevant TGD
// (tgds false), a clean saturation survives any sync, and the instance has
// no derived facts to rewrite. Otherwise — a release or a changed Π value
// under a relevant TGD or on a violated instance, or a v_p that is a null
// occurring among the derived facts, which h would conflate with an
// invented one — the saturation is truncated away before any position is
// written. sync returns the ids of the facts it rewrote, ascending, for
// the caller to continue a surviving saturation from (Checker.ContinueFrom).
//
// The result's first n facts equal nulledCopy(facts, pi) up to a renaming
// of nulls, which Algorithm 1's verdict does not see. Nulls at positions
// that stayed outside Π keep the labels they were given, while
// NullForPos's escape may drift as answers remove values from facts; they
// stay fresh because a value enters facts only as an answer — either one
// already in facts or the answered position's own fresh null, which moves
// that position into Π — and labels of distinct positions never meet.
func (in *instance) sync(facts *store.Store, pi Pi, tgds bool) []store.FactID {
	if in.s == nil || in.n != facts.Len() {
		in.s, in.pi, in.n, in.saturated = nulledCopy(facts, pi), pi.Clone(), facts.Len(), false
		return nil
	}
	// keep reports whether the saturation survives; a change that is no
	// h-image keeps it only on a clean instance without a relevant TGD.
	keep := in.saturated
	notImage := func() { keep = keep && !tgds && !in.violated }
	var changed []Position
	for p := range in.pi {
		if !pi.Has(p) {
			delete(in.pi, p)
			if validPos(facts, p) {
				changed = append(changed, p)
				notImage()
			}
		}
	}
	for p := range pi {
		if !validPos(facts, p) {
			continue
		}
		if v := facts.Value(p); in.s.Value(p) != v {
			changed = append(changed, p)
			if in.pi.Has(p) {
				notImage()
			} else if keep && v.IsNull() && in.derivedHolds(v) {
				keep = false
			}
		}
		in.pi[p] = true
	}
	if len(changed) == 0 {
		return nil
	}
	if !keep {
		in.desaturate()
	}
	slices.SortFunc(changed, func(a, b Position) int {
		return cmp.Or(cmp.Compare(a.Fact, b.Fact), cmp.Compare(a.Arg, b.Arg))
	})
	var ids []store.FactID
	var h []rewrite // the n_p that derived facts hold
	left := 0       // their occurrences among the derived facts
	for _, p := range changed {
		v := facts.Value(p)
		if !in.pi.Has(p) {
			v = facts.NullForPos(p)
		}
		n := in.s.MustSetValue(p, v)
		if len(ids) == 0 || ids[len(ids)-1] != p.Fact {
			ids = append(ids, p.Fact)
		}
		if in.s.Len() > in.n {
			if k := in.s.OccurrenceCount(n); k > 0 {
				h = append(h, rewrite{n, v})
				left += k
			}
		}
	}
	return in.rewriteDerived(h, left, ids)
}

// rewrite is one pair n_p ↦ v_p of a sync's homomorphism h.
type rewrite struct{ from, to logic.Term }

// rewriteDerived applies h to the derived facts, which hold its nulls left
// times in all, and appends the ids of the facts it rewrote to ids. The
// scan stops at the last occurrence.
func (in *instance) rewriteDerived(h []rewrite, left int, ids []store.FactID) []store.FactID {
	for id := store.FactID(in.n); left > 0 && int(id) < in.s.Len(); id++ {
		hit := false
		for i := range in.s.Arity(id) {
			q := Position{Fact: id, Arg: i}
			t := in.s.Value(q)
			if !t.IsNull() {
				continue
			}
			for _, r := range h {
				if r.from == t {
					in.s.MustSetValue(q, r.to)
					hit = true
					left--
					break
				}
			}
		}
		if hit {
			ids = append(ids, id)
		}
	}
	return ids
}

// derivedHolds reports whether a fact after the instance's first n holds t.
func (in *instance) derivedHolds(t logic.Term) bool {
	if !in.s.OccursAnywhere(t) {
		return false
	}
	for id := store.FactID(in.n); int(id) < in.s.Len(); id++ {
		if slices.Contains(in.s.FactRef(id).Args, t) {
			return true
		}
	}
	return false
}

// desaturate truncates the instance back to its nulled copy.
func (in *instance) desaturate() {
	if in.s != nil {
		in.s.Truncate(in.n)
	}
	in.saturated = false
}

// PiRepairable implements Algorithm 1 (Π-REP): every position outside Π is
// replaced by a fresh existential variable, and the resulting KB is checked
// for consistency. K is Π-repairable iff that KB is consistent
// (Proposition 3.8). The input KB is not modified.
func PiRepairable(kb *KB, pi Pi) (bool, error) {
	return chase.IsConsistentOpt(nulledCopy(kb.Facts, pi), kb.Rules, kb.ChaseOpts)
}

// PiRepairableNaive is Algorithm 1 with the unoptimized consistency check
// (full chase, then CDD evaluation). Kept for the ablation benchmarks.
func PiRepairableNaive(kb *KB, pi Pi) (bool, error) {
	return chase.IsConsistentNaive(nulledCopy(kb.Facts, pi), kb.Rules, kb.ChaseOpts)
}

// PiChecker performs the repeated Π-repairability checks of question
// generation, with the Π-RepOpt fast path of §5. Create one per KB/session;
// it caches the set of constants appearing in the rules and the compiled
// consistency check, and it owns the session's Π-nulled instance, built
// once and then synced to (kb.Facts, Π) at the start of each batch that
// needs one, so a full check costs what it derives, not a copy of the
// store. With the fast path on, the instance keeps its saturation across
// syncs (see runFullChecks).
type PiChecker struct {
	kb        *KB
	ruleConst map[logic.Term]bool
	// check is CheckConsistency-Opt over the KB's compiled rules.
	check *chase.Checker
	// Optimized disables the fast path when false (ablation).
	Optimized bool
	// FastHits / FullChecks count how often each path ran (observability
	// for the ablation benchmarks).
	FastHits   int
	FullChecks int
	// in is the Π-nulled instance every full check of a batch runs on.
	in instance
	// maintained counts the syncs that changed the instance and kept its
	// saturation, scratch the saturations chased from fact 0 (read by the
	// tests through export_test.go).
	maintained, scratch int
	// cause is the attribution ID of the CDD whose conflict caused the
	// current batch (attr.None when unknown).
	cause attr.ID
	// traceParent is the span id subsequent core.pi_batch spans are
	// parented under (0 for roots).
	traceParent uint64
}

// SetCause attributes subsequent Π-check work to the given ID — the inquiry
// engine sets it to the causing conflict's CDD before each SOUNDQUESTION.
func (pc *PiChecker) SetCause(id attr.ID) { pc.cause = id }

// SetTraceParent parents subsequent Π-batch trace spans under the given
// span id — the inquiry engine points it at the question-generation span
// before each SOUNDQUESTION, mirroring SetCause.
func (pc *PiChecker) SetTraceParent(id uint64) { pc.traceParent = id }

// NewPiChecker builds a checker for the KB with the optimization enabled.
// Its checks search with the KB's compiled rules (KB.Rules), whose plans
// NewKB bound against the base facts.
func NewPiChecker(kb *KB) *PiChecker {
	pc := &PiChecker{kb: kb, ruleConst: make(map[logic.Term]bool), check: chase.NewChecker(kb.Rules),
		Optimized: true, cause: attr.None}
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
// Otherwise the full Algorithm 1 check decides apply(F, {f}) (see
// runFullChecks for how).
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
// session instance (see runFullChecks), with verdicts written by fix
// index.
func (pc *PiChecker) CheckBatch(pi Pi, fixes []Fix) ([]bool, error) {
	for _, f := range fixes {
		if !validPos(pc.kb.Facts, f.Pos) {
			return nil, fmt.Errorf("pirep: position %s out of range", f.Pos)
		}
	}
	out := make([]bool, len(fixes))
	var fastHits, accepted int64
	var full []int
	// One span covers the whole batch: the full checks run with their
	// chases silenced (TraceQuiet), so Π time is attributed here, at batch
	// granularity.
	var sp obs.Span
	if obs.Tracing() {
		sp = obs.StartSpanUnder(pc.traceParent, "core.pi_batch",
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
	cause := pc.cause
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
	if err := pc.runFullChecks(pi, piVals, fixes, full, out); err != nil {
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
// full; piVals is piValues(F, pi) when the fast path is on) on the
// session's instance I. With the fast path on, they are continuations from
// I's saturation (continued), which cost a few rounds each. The saturation
// is kept up to date one way for every KB: a sync that only moves
// positions into Π rewrites the answered nulls in it, and the chase goes
// on from the rewritten facts (Checker.ContinueFrom) — without a relevant
// TGD, that is the ⊥-rules pinned at the changed facts. It is chased from
// fact 0 only on first use and where instance.sync drops it. Without the
// fast path (the ablation), each check is the full in-place chase
// (checkFull). Verdicts land in out by fix index.
func (pc *PiChecker) runFullChecks(pi Pi, piVals map[logic.Term]int, fixes []Fix, full []int, out []bool) error {
	if len(full) == 0 {
		return nil
	}
	// The checks' chases stay out of the trace: CheckBatch's pi_batch span
	// carries the batch's time instead.
	opts := pc.kb.ChaseOpts
	opts.TraceQuiet = true
	if !pc.Optimized {
		return pc.checkFull(pi, fixes, full, out, opts)
	}
	if err := pc.saturate(pc.in.sync(pc.kb.Facts, pi, pc.check.HasTGDs()), opts); err != nil {
		return err
	}
	return pc.decide(full, out, func(i int) (bool, error) {
		return pc.continued(pi, piVals, fixes[i], opts)
	})
}

// decide runs verdict for each fix index in idxs, timing every check into
// core.pi_check_seconds (and the cause's attribution), and writes the
// verdicts into out by index.
func (pc *PiChecker) decide(idxs []int, out []bool, verdict func(i int) (bool, error)) error {
	for _, i := range idxs {
		tm := obs.StartTimer()
		ok, err := verdict(i)
		mPiCheckTime.Since(tm)
		attrPiTime.Since(pc.cause, tm)
		if err != nil {
			return err
		}
		out[i] = ok
	}
	return nil
}

// checkFull syncs the instance to (kb.Facts, Π), without a saturation, and
// decides each fix index in idxs on it by the full in-place check: Algorithm 1 on (apply(F,{f}), Π ∪ {f.Pos}) is exactly the nulled
// instance with the fix value at the fix position. (Π positions of the
// instance keep their values; f.Pos is outside Π in every SOUNDQUESTION
// call, and if it were inside, setting it still realizes the hypothetical
// update.) The check truncates its chase away and the fix is undone, so
// the instance is left as found.
func (pc *PiChecker) checkFull(pi Pi, fixes []Fix, idxs []int, out []bool, opts chase.Options) error {
	in := &pc.in
	in.desaturate()
	in.sync(pc.kb.Facts, pi, pc.check.HasTGDs())
	return pc.decide(idxs, out, func(i int) (bool, error) {
		f := fixes[i]
		prev := in.s.MustSetValue(f.Pos, f.Value)
		defer in.s.MustSetValue(f.Pos, prev)
		return pc.check.Consistent(in.s, opts)
	})
}

// saturate brings the synced instance I to saturation under the
// relevant TGDs and ⊥-rules, kept in place after I's facts, or stopped at
// the first ⊥. A saturation the sync kept is continued from the facts it
// rewrote (ids; none when nothing changed), unless it is violated, which
// it stays (DESIGN.md §3); otherwise I is chased from fact 0. Chase time
// is billed to core.pi_check_seconds like a check's. On an error I is
// left as nulledCopy(F, Π) without a saturation, so the next batch chases
// it from fact 0.
func (pc *PiChecker) saturate(ids []store.FactID, opts chase.Options) error {
	in := &pc.in
	tm := obs.StartTimer()
	var ok bool
	var err error
	switch {
	case !in.saturated:
		pc.scratch++
		ok, err = pc.check.Saturate(in.s, opts)
	case len(ids) == 0:
		return nil
	case in.violated:
		pc.maintained++
		return nil
	default:
		pc.maintained++
		ok, err = pc.check.ContinueFrom(in.s, ids, opts)
	}
	mPiCheckTime.Since(tm)
	attrPiTime.Since(pc.cause, tm)
	if err != nil {
		in.desaturate()
		return err
	}
	in.saturated, in.violated = true, !ok
	return nil
}

// continued decides one fix on the saturated instance I by
// continuation: Algorithm 1 on (apply(F,{f}), Π ∪ {f.Pos}) is the instance
// I′ that is I with f.Value at f.Pos, and its verdict is read off M ∪ {F′},
// where M is I's saturation — chase(I), or the store kept for it across
// syncs, a model containing I that maps into chase(I) fixing I's terms —
// and F′ is fact F with f.Value at f.Pos, chased on from F′ alone until ⊥
// or fixpoint (Checker.ConsistentWith) and truncated back. If M is
// violated, the fix is rejected without a chase.
//
// Soundness: f.Pos ∉ Π holds a null n that occurs nowhere else in I — the
// position's own fresh null, and the saturation invents only nulls escaped
// against I — so h = {n ↦ v} is a homomorphism from I to I′. By the
// universal-model property, h extends to a homomorphism from chase(I) to
// chase(I′), and composed with M → chase(I) it maps M into chase(I′)
// extending h, so a violation of M maps to one of chase(I′): I′ is
// violated whenever M is. Otherwise let C be the continuation's result, a
// model of the rules that contains I′ (F′ joins I's other facts); chase(I′)
// maps into C by universality, and C maps into chase(I′) by extending the
// homomorphism from M with F′ ↦ F′. So C and chase(I′) are
// homomorphically equivalent and have the same violations: derivations
// that used F's old null stay valid in C, and nothing has to be
// un-derived.
//
// The argument needs f.Pos ∉ Π, and h to fix f.Value, which fails only for
// a null that occurs in the saturation but in no Π value of F — one the
// saturation invented, not one of I's. Those fixes, which SOUNDQUESTION
// never produces, get the full check on a fresh nulled copy instead.
func (pc *PiChecker) continued(pi Pi, piVals map[logic.Term]int, f Fix, opts chase.Options) (bool, error) {
	in := &pc.in
	if !pi.Has(f.Pos) {
		if in.violated {
			return false, nil
		}
		v := f.Value
		if !v.IsNull() || piVals[v] > 0 || !in.s.OccursAnywhere(v) {
			a := in.s.Fact(f.Pos.Fact)
			a.Args[f.Pos.Arg] = v
			return pc.check.ConsistentWith(in.s, a, opts)
		}
	}
	s := nulledCopy(pc.kb.Facts, pi)
	s.MustSetValue(f.Pos, f.Value)
	return pc.check.Consistent(s, opts)
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
