package chase

import (
	"slices"

	"kbrepair/internal/homo"
	"kbrepair/internal/logic"
	"kbrepair/internal/obs/attr"
	"kbrepair/internal/store"
)

// Rules is a rule set compiled once against a store: every conjunction the
// chase, the consistency check, conflict detection and the conflict tracker
// search, with its join order bound against that store's statistics.
// core.NewKB compiles a KB's set against its base facts, so every plan of a
// KB binds at that one point, and the KB's clones share the set. Immutable
// once built, so concurrent searches may share it.
type Rules struct {
	// CDD[i] is the i-th CDD compiled.
	CDD []*CDDRule
	// table is the chase table of the TGDs (Run, RunInPlace); check is that
	// of the TGDs relevant to the CDDs followed by the CDDs' ⊥-rules
	// (Checker).
	table, check *ruleSet
	// relevant is the set restricted to the TGDs relevant to the CDDs: rs
	// itself when every TGD is.
	relevant *Rules
	// cddsByPred maps a predicate to the ascending indexes of the CDDs with
	// a body atom over it (the Σ_C^A of §5, at predicate granularity).
	cddsByPred map[string][]int
}

// CDDRule is one CDD compiled: the plans its violations are searched with,
// whole or pinned at one body atom, shared by conflict detection, the
// tracker and the CDD's ⊥-rule.
type CDDRule struct {
	CDD *logic.CDD
	// Bottom is the CDD's ⊥-rule, body(CDD) → ⊥() (CheckConsistency-Opt,
	// §5): the rule derivations of ⊥ name.
	Bottom *logic.TGD
	// Body enumerates the CDD's violations. Pinned[i] is the body pinned at
	// atom i (homo.PinnedPlan); for a one-atom body the rest is the empty
	// conjunction, whose one match is the pin's bindings.
	Body   *homo.Plan
	Pinned []*homo.Plan
	// Vars are the CDD's variables in logic.Term order: the keys of every
	// homomorphism of its body, in the order Subst.Key writes them.
	Vars []logic.Term
	// PinArgs lists, per body atom, the argument indexes whose values pin a
	// homomorphism: the join-variable arguments, then the constant
	// arguments, each ascending. Shared: callers do not modify it.
	PinArgs [][]int
	// AID is the CDD's attribution ID, interned at compile time (attr.None
	// when attribution was off then, like homo.Plan's).
	AID attr.ID
}

// rule is one TGD compiled for the chase: the invariants the round loop
// reads per trigger.
type rule struct {
	tgd *logic.TGD
	// front and exist are the frontier and existential variables (the TGD
	// methods compute fresh slices on every call).
	front, exist []logic.Term
	// body enumerates the triggers of a full round; pinned[i] is the body
	// pinned at atom i (homo.PinnedPlan), searched with atom i pinned onto
	// a delta fact; head is the applicability check, seed-specialized on
	// the frontier variables every check binds.
	body, head *homo.Plan
	pinned     []*homo.Plan
	// pin is a one-atom TGD's body atom compiled for pinning, in place of
	// pinned plans (pinned is nil): the pinned atom is the whole match, so
	// a delta fact it maps onto is a trigger without a search.
	pin homo.Pin
	// aid is the rule's attribution ID (see CDDRule.AID).
	aid attr.ID
}

// ruleSet is a list of compiled rules in chase order. Immutable once
// built, so concurrent chases may share it.
type ruleSet struct {
	rules []*rule
	// byPred maps a predicate to the ascending indexes of the rules with a
	// body atom over it: the rules a delta fact of that predicate can
	// trigger.
	byPred map[string][]int
}

// NewRules compiles tgds and cdds against stats, which binds every plan's
// join order: pass the store the plans will mostly run against — for a KB,
// its base facts. The TGD rows are compiled first, in order, then each
// CDD's body, ⊥-rule head and pinned plans.
func NewRules(tgds []*logic.TGD, cdds []*logic.CDD, stats *store.Store) *Rules {
	rows := make([]*rule, len(tgds))
	for i, t := range tgds {
		rows[i] = newRule(t, stats)
	}
	rs := &Rules{CDD: make([]*CDDRule, len(cdds)), cddsByPred: make(map[string][]int)}
	bottoms := make([]*rule, len(cdds))
	for i, c := range cdds {
		rs.CDD[i], bottoms[i] = newCDDRule(c, stats)
		for _, a := range c.Body {
			if ps := rs.cddsByPred[a.Pred]; len(ps) == 0 || ps[len(ps)-1] != i {
				rs.cddsByPred[a.Pred] = append(ps, i)
			}
		}
	}
	rs.table = newRuleSet(rows)
	rel := relevantRows(rows, cdds)
	rs.check = newRuleSet(append(rel, bottoms...))
	if len(rel) == len(rows) {
		rs.relevant = rs
		return rs
	}
	r := &Rules{CDD: rs.CDD, table: newRuleSet(rel), check: rs.check, cddsByPred: rs.cddsByPred}
	r.relevant = r
	rs.relevant = r
	return rs
}

// Relevant returns the set restricted to the TGDs that can (transitively)
// contribute to a CDD violation, in order: starting from the predicates in
// CDD bodies, a TGD is relevant if its head mentions a relevant predicate,
// and then its body predicates become relevant too. Facts derived by other
// TGDs can never appear in — or feed a derivation that appears in — a
// CDD-body homomorphism, so consistency checking and conflict detection
// chase only the relevant rules. The plans are rs's own.
func (rs *Rules) Relevant() *Rules { return rs.relevant }

// EachPinned calls fn, in (CDD, body atom) order, for every CDD body atom
// over the ground atom's predicate; rs.CDD[ci].Pinned[ai].ForEachPinned
// and ExistsPinned pin body atom ai onto the atom, rejecting one it does
// not map onto, and search the rest of the body. These are the fact-local
// searches of §5's UpdateConflicts — every violation that uses a given
// fact. fn returns false to stop.
func (rs *Rules) EachPinned(atom logic.Atom, fn func(ci, ai int) bool) {
	for _, ci := range rs.cddsByPred[atom.Pred] {
		for ai, ba := range rs.CDD[ci].CDD.Body {
			if ba.Pred == atom.Pred && !fn(ci, ai) {
				return
			}
		}
	}
}

// newRule compiles the chase row of t against stats.
func newRule(t *logic.TGD, stats *store.Store) *rule {
	r := newRow(t, stats)
	if len(t.Body) == 1 {
		r.pin = homo.NewPin(t.Body[0])
	} else {
		r.pinned = pinnedPlans(t.Body, stats)
	}
	return r
}

// newRow compiles the body and head plans of t's chase row against stats.
func newRow(t *logic.TGD, stats *store.Store) *rule {
	r := &rule{tgd: t, front: t.FrontierVars(), exist: t.ExistentialVars(), aid: attrID(t.String())}
	r.body = homo.CompileWith(t.Body, homo.CompileOpts{Stats: stats})
	r.head = homo.CompileWith(t.Head, homo.CompileOpts{Stats: stats, Prebound: r.front})
	return r
}

// pinnedPlans compiles body pinned at each of its atoms against stats.
func pinnedPlans(body []logic.Atom, stats *store.Store) []*homo.Plan {
	out := make([]*homo.Plan, len(body))
	for ai := range body {
		out[ai] = homo.PinnedPlan(body, ai, stats)
	}
	return out
}

// newCDDRule compiles c and its ⊥-rule against stats. The ⊥-rule's body and
// pinned plans are the CDD's own, a one-atom body's included: the tracker
// and ViolatedAt search them too.
func newCDDRule(c *logic.CDD, stats *store.Store) (*CDDRule, *rule) {
	bottom := &logic.TGD{
		Label: "⊥:" + c.Label,
		Body:  append([]logic.Atom(nil), c.Body...),
		Head:  []logic.Atom{logic.NewAtom(BottomPred)},
	}
	r := newRow(bottom, stats)
	r.pinned = pinnedPlans(c.Body, stats)
	return &CDDRule{
		CDD:     c,
		Bottom:  bottom,
		Body:    r.body,
		Pinned:  r.pinned,
		Vars:    sortedVars(c.Body),
		PinArgs: pinArgs(c),
		AID:     attrID(c.String()),
	}, r
}

// sortedVars returns the variables of body in logic.Term order.
func sortedVars(body []logic.Atom) []logic.Term {
	n := 0
	for _, a := range body {
		n += len(a.Args)
	}
	out := make([]logic.Term, 0, n)
	for _, a := range body {
		for _, t := range a.Args {
			if t.IsVar() && !slices.Contains(out, t) {
				out = append(out, t)
			}
		}
	}
	logic.SortTerms(out)
	return out
}

// attrID interns key when attribution is on, as homo.Plan does.
func attrID(key string) attr.ID {
	if !attr.Enabled() {
		return attr.None
	}
	return attr.Intern(key)
}

// pinArgs returns the CDDRule.PinArgs table of c.
func pinArgs(c *logic.CDD) [][]int {
	joinArgs := c.JoinPositions()
	out := make([][]int, len(c.Body))
	for i, a := range c.Body {
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

// newRuleSet indexes rows by body predicate.
func newRuleSet(rows []*rule) *ruleSet {
	rs := &ruleSet{rules: rows, byPred: make(map[string][]int)}
	for i, r := range rows {
		for _, a := range r.tgd.Body {
			if ps := rs.byPred[a.Pred]; len(ps) == 0 || ps[len(ps)-1] != i {
				rs.byPred[a.Pred] = append(ps, i)
			}
		}
	}
	return rs
}

// relevantRows returns the rows of the TGDs relevant to cdds, in order
// (see Rules.Relevant).
func relevantRows(rows []*rule, cdds []*logic.CDD) []*rule {
	relevant := make(map[string]bool)
	for _, c := range cdds {
		for _, a := range c.Body {
			relevant[a.Pred] = true
		}
	}
	selected := make([]bool, len(rows))
	for changed := true; changed; {
		changed = false
		for i, r := range rows {
			if selected[i] || !headMentions(r.tgd, relevant) {
				continue
			}
			selected[i] = true
			changed = true
			for _, b := range r.tgd.Body {
				relevant[b.Pred] = true
			}
		}
	}
	out := make([]*rule, 0, len(rows))
	for i, r := range rows {
		if selected[i] {
			out = append(out, r)
		}
	}
	return out
}

// headMentions reports whether a head atom of t is over one of preds.
func headMentions(t *logic.TGD, preds map[string]bool) bool {
	for _, h := range t.Head {
		if preds[h.Pred] {
			return true
		}
	}
	return false
}
