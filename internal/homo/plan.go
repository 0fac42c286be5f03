package homo

import (
	"sync"

	"kbrepair/internal/logic"
	"kbrepair/internal/obs"
	"kbrepair/internal/obs/attr"
	"kbrepair/internal/obs/flight"
	"kbrepair/internal/store"
)

// Plan-compiler instrumentation: how many conjunctions were compiled. A KB
// compiles each of its rules' conjunctions once (chase.NewRules), and every
// later search reuses those plans.
var mPlanCompiles = obs.NewCounter("homo.plan_compiles")

// Per-body attribution families (see internal/obs/attr): every search
// flushes its cost against the plan's interned body key, so the profile can
// rank bodies by tree size and self-time.
var (
	attrSearches  = attr.NewCounterVec(attr.FamSearches)
	attrNodes     = attr.NewCounterVec(attr.FamNodes)
	attrProbes    = attr.NewCounterVec(attr.FamProbes)
	attrMatches   = attr.NewCounterVec(attr.FamMatches)
	attrNodesPer  = attr.NewHistogramVec(attr.FamNodesPerSearch, attr.SizeBuckets)
	attrProbesPer = attr.NewHistogramVec(attr.FamProbesPerSearch, attr.SizeBuckets)
	attrTime      = attr.NewHistogramVec(attr.FamSearchSeconds, obs.LatencyBuckets)
)

// bodyKey is the content-addressed attribution key of a conjunction: the
// canonical rendering of its atoms, identical across KB clones, reps and
// worker counts wherever the same body is compiled.
func bodyKey(body []logic.Atom) string {
	if len(body) == 0 {
		return "(empty)"
	}
	return logic.AtomsString(body)
}

// planArg is one argument position of a compiled atom: either a ground term
// that candidate facts must match exactly, or a variable slot into the
// executor's flat binding array.
type planArg struct {
	slot int        // variable slot; -1 for a ground term
	term logic.Term // the ground term when slot < 0
}

// planAtom is one body atom with its variables interned to integer slots.
type planAtom struct {
	pred  string
	arity int
	args  []planArg
	slots []int // distinct slots occurring in this atom
}

// Plan is a conjunction compiled for repeated execution: variables interned
// to dense integer slots, ground positions precomputed, and a per-slot
// reverse index (slotAtoms) that tells the executor which atoms' candidate
// sets are invalidated when a slot binds or unbinds. A Plan is immutable
// after Compile and safe for concurrent use; per-search mutable state lives
// in pooled exec instances.
type Plan struct {
	atoms []planAtom
	// vars maps slot -> variable term. A PinnedPlan's vars end with the
	// slots only its pin binds, which slotOf and slotAtoms leave out: no
	// atom mentions them.
	vars      []logic.Term
	slotOf    map[logic.Term]int
	slotAtoms [][]int // slot -> indices of atoms mentioning it
	pool      sync.Pool
	// mode is the kernel resolved at compile time (static or wcoj).
	mode Mode
	// order is the static kernel's atom visit order; vorder is the wcoj
	// kernel's slot binding order. Only the resolved mode's field is set.
	order  []int
	vorder []int
	// pin is the pinned atom of a PinnedPlan (ForEachPinned); the zero Pin,
	// which matches no fact, for any other plan.
	pin Pin
	// aid is the interned attribution key of the body, resolved at compile
	// time (attr.None when attribution was off then — plans compiled before
	// attr.SetEnabled record nothing, which the CLIs avoid by enabling
	// attribution before any work).
	aid attr.ID
}

// Mode returns the kernel the plan was compiled for.
func (p *Plan) Mode() Mode { return p.mode }

// Compile builds an execution plan for body with default options: automatic
// kernel selection and a structural (stats-free) join order. Call sites that
// know the store the plan will run against should prefer CompileWith with
// Stats so the orderer sees real cardinalities.
func Compile(body []logic.Atom) *Plan {
	return CompileWith(body, CompileOpts{})
}

// CompileWith builds an execution plan for body. The kernel and the join
// order are fixed here, once: the cost-based orderer (order.go) picks the
// atom sequence from opts.Stats cardinalities and bound-slot connectivity,
// cyclic bodies get the generic-join kernel, and opts.Prebound slots count
// as bound from the start (seed-specialized plans).
func CompileWith(body []logic.Atom, opts CompileOpts) *Plan {
	mPlanCompiles.Inc()
	// Argument positions bound the body's slots; a PinnedPlan appends
	// slots for prebound variables the body does not mention.
	n := 0
	for _, a := range body {
		n += len(a.Args)
	}
	p := &Plan{
		atoms:     make([]planAtom, len(body)),
		vars:      make([]logic.Term, 0, n+len(opts.Prebound)),
		slotOf:    make(map[logic.Term]int),
		slotAtoms: make([][]int, 0, n),
		aid:       attr.None,
	}
	if attr.Enabled() {
		p.aid = attr.Intern(bodyKey(body))
	}
	for i, a := range body {
		pa := planAtom{pred: a.Pred, arity: len(a.Args), args: make([]planArg, len(a.Args))}
		for j, t := range a.Args {
			if !t.IsVar() {
				pa.args[j] = planArg{slot: -1, term: t}
				continue
			}
			s, ok := p.slotOf[t]
			if !ok {
				s = len(p.vars)
				p.slotOf[t] = s
				p.vars = append(p.vars, t)
				p.slotAtoms = append(p.slotAtoms, nil)
			}
			pa.args[j] = planArg{slot: s}
			if n := len(pa.slots); n == 0 || !containsInt(pa.slots, s) {
				pa.slots = append(pa.slots, s)
				p.slotAtoms[s] = append(p.slotAtoms[s], i)
			}
		}
		p.atoms[i] = pa
	}
	pre := make([]bool, len(p.vars))
	var preNames []string
	for _, v := range opts.Prebound {
		if sl, ok := p.slotOf[v]; ok {
			pre[sl] = true
		}
		preNames = append(preNames, v.Name)
	}
	mode := opts.Mode
	if mode == ModeAuto {
		if p.isCyclic() {
			mode = ModeWCOJ
		} else {
			mode = ModeStatic
		}
	}
	p.mode = mode
	var orderDesc []string
	switch mode {
	case ModeWCOJ:
		p.vorder = p.wcojOrder()
		for _, s := range p.vorder {
			orderDesc = append(orderDesc, p.vars[s].Name)
		}
	case ModeStatic:
		p.order = p.staticOrder(opts.Stats, pre)
		for _, i := range p.order {
			orderDesc = append(orderDesc, body[i].String())
		}
	}
	if len(body) > 0 {
		recordPlanInfo(PlanInfo{
			Body:     bodyKey(body),
			Mode:     mode.String(),
			Order:    orderDesc,
			Prebound: preNames,
			Stats:    opts.Stats != nil,
		})
	}
	p.pool.New = func() any { return newExec(p) }
	return p
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// exec is the per-search mutable state of a plan: a flat binding array
// indexed by slot, an undo trail, and a per-atom candidate-list cache with
// dirty flags. Instances are pooled per plan so a search with a compiled
// plan allocates nothing.
type exec struct {
	p  *Plan
	s  *store.Store
	fn func(Match) bool

	bind  []logic.Term // slot -> bound term
	set   []bool       // slot -> bound?
	trail []int        // bound slots in binding order; undo = truncate

	facts []store.FactID

	// Candidate cache: cands[i] is valid while fresh[i] holds. A slot
	// binding or unbinding clears fresh for every atom mentioning the slot
	// (Plan.slotAtoms), so each index is probed once per binding change
	// rather than once per backtrack node.
	cands [][]store.FactID
	fresh []bool

	// Generic-join state (wcoj plans only): the unbound slots of this search
	// in binding order, and per-level distinct-value sets, reused across
	// searches so the steady state allocates nothing.
	wslots []int
	wseen  []map[logic.Term]struct{}

	// scratch is the Subst materialized for fn at each match; like the
	// legacy engine's live map it is only valid during the callback.
	scratch logic.Subst
	// Seed bindings for variables that have no slot (a seed may bind more
	// than the body mentions); appended at match time.
	extraV []logic.Term
	extraT []logic.Term

	stopped bool
	matched bool
	nodes   int64
	probes  int64
	matches int64
}

func newExec(p *Plan) *exec {
	n := len(p.atoms)
	e := &exec{
		p:       p,
		bind:    make([]logic.Term, len(p.vars)),
		set:     make([]bool, len(p.vars)),
		trail:   make([]int, 0, len(p.vars)),
		facts:   make([]store.FactID, n),
		cands:   make([][]store.FactID, n),
		fresh:   make([]bool, n),
		scratch: logic.NewSubst(),
	}
	if p.mode == ModeWCOJ {
		e.wslots = make([]int, 0, len(p.vars))
		e.wseen = make([]map[logic.Term]struct{}, len(p.vars))
		for i := range e.wseen {
			e.wseen[i] = make(map[logic.Term]struct{})
		}
	}
	return e
}

func (e *exec) reset(s *store.Store, fn func(Match) bool) {
	e.s, e.fn = s, fn
	for i := range e.set {
		e.set[i] = false
	}
	for i := range e.fresh {
		e.fresh[i] = false
	}
	e.trail = e.trail[:0]
	e.extraV = e.extraV[:0]
	e.extraT = e.extraT[:0]
	e.stopped, e.matched = false, false
	e.nodes, e.probes, e.matches = 0, 0, 0
}

// seed binds the seed's variables: into their slots, or, for a variable the
// body does not mention, into the extra bindings materialize appends.
func (e *exec) seed(seed logic.Subst) {
	for v, t := range seed {
		if sl, ok := e.p.slotOf[v]; ok {
			e.bind[sl] = t
			e.set[sl] = true
		} else {
			e.extraV = append(e.extraV, v)
			e.extraT = append(e.extraT, t)
		}
	}
}

// release drops references into the store so pooled executors do not pin
// candidate index slices (or the store itself) between searches.
func (e *exec) release() {
	e.s, e.fn = nil, nil
	for i := range e.cands {
		e.cands[i] = nil
	}
}

// runStatic matches the atoms in the plan's compile-time order, with
// one-step forward checking: after extending the bindings it peeks at the
// next atom's candidate list — served from the per-atom cache, so the peek
// costs at most one index probe — and skips the child node outright when
// the list is empty. A kernel without the peek pays a full node to discover
// the same dead end, so at equal order quality static trees are strictly
// smaller on failing branches.
func (e *exec) runStatic(depth int) {
	if e.stopped {
		return
	}
	e.nodes++
	if depth == len(e.p.atoms) {
		e.matches++
		if e.fn == nil { // exists-only mode
			e.matched = true
			e.stopped = true
			return
		}
		if !e.fn(Match{Subst: e.materialize(), Facts: e.facts}) {
			e.stopped = true
		}
		return
	}
	idx := e.p.order[depth]
	cands := e.candidates(idx)
	last := depth+1 == len(e.p.atoms)
	for _, fid := range cands {
		fact := e.s.FactRef(fid)
		mark := len(e.trail)
		if e.matchAtom(idx, fact) {
			e.facts[idx] = fid
			if last || len(e.candidates(e.p.order[depth+1])) > 0 {
				e.runStatic(depth + 1)
			}
		}
		e.undo(mark)
		if e.stopped {
			break
		}
	}
}

// candidates returns the most selective index list for atom i, recomputing
// only when a slot of the atom changed since the last probe. The probe
// selection order (predicate index first, then argument positions left to
// right, strictly smaller wins) matches the legacy engine exactly — the
// chosen list's identity, not just its length, determines enumeration order.
func (e *exec) candidates(i int) []store.FactID {
	if e.fresh[i] {
		return e.cands[i]
	}
	a := &e.p.atoms[i]
	e.probes++
	best := e.s.CandidatesByPred(a.pred)
	for j := range a.args {
		pa := a.args[j]
		var g logic.Term
		if pa.slot < 0 {
			g = pa.term
		} else if e.set[pa.slot] {
			g = e.bind[pa.slot]
		} else {
			continue
		}
		if !g.IsGround() {
			continue
		}
		e.probes++
		c := e.s.Candidates(a.pred, j, g)
		if len(c) < len(best) {
			best = c
		}
	}
	e.cands[i] = best
	e.fresh[i] = true
	return best
}

// matchAtom extends the bindings so atom i maps onto fact, pushing newly
// bound slots onto the trail. On failure, partially pushed bindings are left
// on the trail for the caller's undo — run always undoes to its mark.
func (e *exec) matchAtom(i int, fact logic.Atom) bool {
	a := &e.p.atoms[i]
	if a.pred != fact.Pred || a.arity != len(fact.Args) {
		return false
	}
	for j, pa := range a.args {
		ft := fact.Args[j]
		if pa.slot < 0 {
			if pa.term != ft {
				return false
			}
			continue
		}
		if e.set[pa.slot] {
			if e.bind[pa.slot] != ft {
				return false
			}
			continue
		}
		e.bind[pa.slot] = ft
		e.set[pa.slot] = true
		e.trail = append(e.trail, pa.slot)
		for _, ai := range e.p.slotAtoms[pa.slot] {
			e.fresh[ai] = false
		}
	}
	return true
}

// undo unbinds every slot past mark and invalidates the affected atoms'
// candidate caches.
func (e *exec) undo(mark int) {
	for k := len(e.trail) - 1; k >= mark; k-- {
		sl := e.trail[k]
		e.set[sl] = false
		for _, ai := range e.p.slotAtoms[sl] {
			e.fresh[ai] = false
		}
	}
	e.trail = e.trail[:mark]
}

// materialize refills the scratch Subst from the binding array plus any
// non-body seed bindings. At a full match every plan slot is bound.
func (e *exec) materialize() logic.Subst {
	m := e.scratch
	clear(m)
	for i, v := range e.p.vars {
		if e.set[i] {
			m[v] = e.bind[i]
		}
	}
	for i, v := range e.extraV {
		m[v] = e.extraT[i]
	}
	return m
}

// ForEach enumerates homomorphisms from the plan's conjunction to s. The
// Match passed to fn is only valid during the call; clone it to retain it.
// Returning false from fn stops the enumeration.
func (p *Plan) ForEach(s *store.Store, fn func(Match) bool) {
	p.ForEachSeeded(s, nil, fn)
}

// ForEachSeeded is ForEach with an initial partial substitution; only
// homomorphisms extending seed are enumerated. seed may be nil.
func (p *Plan) ForEachSeeded(s *store.Store, seed logic.Subst, fn func(Match) bool) {
	p.search(s, seed, fn)
}

// Exists reports whether at least one homomorphism exists (boolean
// conjunctive query evaluation). No Subst is materialized.
func (p *Plan) Exists(s *store.Store) bool {
	return p.search(s, nil, nil)
}

// ExistsSeeded reports whether a homomorphism extending seed exists.
func (p *Plan) ExistsSeeded(s *store.Store, seed logic.Subst) bool {
	return p.search(s, seed, nil)
}

// search runs one execution of the plan; fn == nil means exists-only mode
// (stop at the first match, no Subst materialization). Returns whether a
// match was found.
func (p *Plan) search(s *store.Store, seed logic.Subst, fn func(Match) bool) bool {
	mSearches.Inc()
	tm := obs.StartTimer()
	e := p.pool.Get().(*exec)
	e.reset(s, fn)
	e.seed(seed)
	return p.run(e, tm)
}

// searchPinned is search with the plan's pin bound on fact, which it
// matches (see ForEachPinned).
func (p *Plan) searchPinned(s *store.Store, fact logic.Atom, fn func(Match) bool) bool {
	mSearches.Inc()
	tm := obs.StartTimer()
	e := p.pool.Get().(*exec)
	e.reset(s, fn)
	e.bindPin(fact)
	return p.run(e, tm)
}

// run executes the plan's kernel on the seeded executor e, records the
// search and returns e to the pool. The empty conjunction's one match is
// its seed, found with no node and no probe.
func (p *Plan) run(e *exec, tm obs.Timer) bool {
	switch {
	case len(p.atoms) == 0:
		e.matches = 1
		if e.fn != nil {
			e.fn(Match{Subst: e.materialize(), Facts: nil})
		}
	case p.mode == ModeWCOJ:
		e.runWCOJ()
	default:
		e.runStatic(0)
	}
	matched := e.matched || e.matches > 0
	mNodes.Add(e.nodes)
	mProbes.Add(e.probes)
	flight.Record(flight.KindHomoSearch, int64(len(p.atoms)), e.nodes, e.probes, e.matches)
	mTime.Since(tm)
	if attr.Enabled() {
		attrSearches.Add(p.aid, 1)
		attrNodes.Add(p.aid, e.nodes)
		attrProbes.Add(p.aid, e.probes)
		attrMatches.Add(p.aid, e.matches)
		attrNodesPer.Observe(p.aid, float64(e.nodes))
		attrProbesPer.Observe(p.aid, float64(e.probes))
		attrTime.Since(p.aid, tm)
	}
	e.release()
	p.pool.Put(e)
	return matched
}
