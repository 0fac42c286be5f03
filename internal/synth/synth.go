// Package synth generates the synthetic knowledge bases of the paper's
// experimental study (§6): a random vocabulary with n-ary predicates, CDDs
// parameterized by body size and join-variable ratio, TGDs linked to CDDs
// through derivation chains of configurable depth d_K, and a fact set built
// by planting CDD violations until a target inconsistency ratio is reached,
// then padded with conflict-free atoms.
//
// Generation is fully deterministic under Params.Seed.
package synth

import (
	"fmt"
	"math/rand"
	"strconv"

	"kbrepair/internal/chase"
	"kbrepair/internal/conflict"
	"kbrepair/internal/core"
	"kbrepair/internal/logic"
	"kbrepair/internal/store"
)

// Params configure the generator. Zero values take the documented defaults.
type Params struct {
	// Seed drives all randomness.
	Seed int64
	// NumFacts is the target |F| (default 200).
	NumFacts int
	// InconsistencyRatio r_inc is the target fraction of atoms involved in
	// at least one conflict (default 0.1).
	InconsistencyRatio float64
	// NumCDDs is the number of CDDs (default 10).
	NumCDDs int
	// NumTGDs is the number of TGDs (default 0: CDD-only KB).
	NumTGDs int
	// Depth d_K is the number of TGD applications needed before a
	// chase-linked CDD violation fires (default 1 when NumTGDs > 0).
	Depth int
	// ChaseConflictFraction is the fraction of planted violations that are
	// only reachable through the chase (default 0.4 when NumTGDs > 0,
	// otherwise 0).
	ChaseConflictFraction float64
	// CDDAtomsMin/Max bound the CDD body size s (defaults 2 and 3).
	CDDAtomsMin, CDDAtomsMax int
	// JoinVarRatio v_jp is the target fraction of CDD body positions
	// holding join variables, beyond the connectivity minimum (default
	// 0.3).
	JoinVarRatio float64
	// ArityMin/Max bound predicate arities (defaults 2 and 4).
	ArityMin, ArityMax int
	// NumPredicates is the vocabulary size (default 12).
	NumPredicates int
	// OverlapProb is the probability that a planted violation grows into a
	// hub *cluster*: ClusterSize violations of the same CDD sharing one
	// atom. Clusters create the overlap structure ("avg scope") the
	// opti-mcd strategy exploits (default 0.5).
	OverlapProb float64
	// ClusterSize is the number of violations per hub cluster (default 8,
	// matching the paper's avg-scope ≈ 8–30 indicators).
	ClusterSize int
}

func (p Params) withDefaults() Params {
	if p.NumFacts == 0 {
		p.NumFacts = 200
	}
	if p.InconsistencyRatio == 0 {
		p.InconsistencyRatio = 0.1
	}
	if p.NumCDDs == 0 {
		p.NumCDDs = 10
	}
	if p.Depth == 0 && p.NumTGDs > 0 {
		p.Depth = 1
	}
	if p.ChaseConflictFraction == 0 && p.NumTGDs > 0 {
		p.ChaseConflictFraction = 0.4
	}
	if p.CDDAtomsMin == 0 {
		p.CDDAtomsMin = 2
	}
	if p.CDDAtomsMax == 0 {
		p.CDDAtomsMax = 3
	}
	if p.ArityMin == 0 {
		p.ArityMin = 2
	}
	if p.ArityMax == 0 {
		p.ArityMax = 4
	}
	if p.NumPredicates == 0 {
		p.NumPredicates = 12
	}
	if p.OverlapProb == 0 {
		p.OverlapProb = 0.5
	}
	if p.ClusterSize == 0 {
		p.ClusterSize = 8
	}
	return p
}

func (p Params) validate() error {
	if p.InconsistencyRatio < 0 || p.InconsistencyRatio > 1 {
		return fmt.Errorf("synth: inconsistency ratio %f out of [0,1]", p.InconsistencyRatio)
	}
	if p.CDDAtomsMin > p.CDDAtomsMax || p.CDDAtomsMin < 1 {
		return fmt.Errorf("synth: bad CDD body size range [%d,%d]", p.CDDAtomsMin, p.CDDAtomsMax)
	}
	if p.ArityMin > p.ArityMax || p.ArityMin < 1 {
		return fmt.Errorf("synth: bad arity range [%d,%d]", p.ArityMin, p.ArityMax)
	}
	if p.NumTGDs > 0 && p.NumTGDs < p.Depth {
		return fmt.Errorf("synth: NumTGDs=%d < Depth=%d (each chain needs Depth TGDs)", p.NumTGDs, p.Depth)
	}
	return nil
}

// Info describes the generated KB with the indicators the paper reports in
// its experiment tables.
type Info struct {
	Facts               int
	ChaseSize           int
	NaiveConflicts      int
	TotalConflicts      int
	AtomsInConflicts    int
	InconsistencyRatio  float64
	AvgAtomsPerConflict float64
	AvgAtomsPerOverlap  float64
	AvgScope            float64
	// JoinPositionPct is the fraction of CDD body positions that hold join
	// variables.
	JoinPositionPct  float64
	NumTGDs, NumCDDs int
}

// Generated bundles the KB with its metadata.
type Generated struct {
	KB   *core.KB
	Info Info
}

type generator struct {
	p   Params
	rng *rand.Rand

	preds      []string
	arity      map[string]int
	cdds       []*logic.CDD
	tgds       []*logic.TGD
	chains     []chainInfo
	st         *store.Store
	inConflict map[store.FactID]bool
	padSeq     int
	vioSeq     int
}

// chainInfo describes one TGD derivation chain ending in a CDD body
// predicate.
type chainInfo struct {
	cddIdx  int // the CDD the chain can violate
	atomIdx int // which body atom the chain derives
	srcPred string
}

// Generate builds a synthetic KB per the parameters.
func Generate(params Params) (*Generated, error) {
	p := params.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	g := &generator{
		p:          p,
		rng:        rand.New(rand.NewSource(p.Seed)),
		arity:      make(map[string]int),
		st:         store.New(),
		inConflict: make(map[store.FactID]bool),
	}
	g.buildVocabulary()
	if err := g.buildCDDs(); err != nil {
		return nil, err
	}
	g.buildTGDs()
	if err := g.plantViolations(); err != nil {
		return nil, err
	}
	g.pad()

	kb, err := core.NewKB(g.st, g.tgds, g.cdds)
	if err != nil {
		return nil, fmt.Errorf("synth: generated KB invalid: %w", err)
	}
	info, err := describe(kb)
	if err != nil {
		return nil, err
	}
	return &Generated{KB: kb, Info: info}, nil
}

// describe computes the paper's KB-structure indicators for any KB. It
// chases kb.Facts in place and truncates it back, so it writes the store:
// the caller holds the KB exclusively for the call.
func describe(kb *core.KB) (Info, error) {
	// The KB outlives this call (repair sessions run on it), and the CDD
	// body plans it caches are shared with the ⊥-rules and the tracker:
	// bind them against the base facts before the scan's chase grows the
	// store.
	conflict.PrecompileBodies(kb.Facts, kb.CDDs)
	all, err := conflict.AllInPlace(kb.Facts, kb.TGDs, kb.CDDs, kb.ChaseOpts)
	if err != nil {
		return Info{}, err
	}
	// ChaseSize reports the full materialization Cl_ΣT(F) (the conflict
	// scan chases only the CDD-relevant rules).
	n := kb.Facts.Len()
	_, err = chase.RunInPlace(kb.Facts, kb.TGDs, kb.ChaseOpts)
	chaseSize := kb.Facts.Len()
	kb.Facts.Truncate(n)
	if err != nil {
		return Info{}, err
	}
	cs := conflict.ComputeStats(all)
	info := Info{
		Facts:               kb.Facts.Len(),
		ChaseSize:           chaseSize,
		NaiveConflicts:      len(conflict.Direct(all)),
		TotalConflicts:      len(all),
		AtomsInConflicts:    cs.AtomsInConflicts,
		AvgAtomsPerConflict: cs.AvgAtomsPerConflict,
		AvgAtomsPerOverlap:  cs.AvgAtomsPerOverlap,
		AvgScope:            cs.AvgScope,
		NumTGDs:             len(kb.TGDs),
		NumCDDs:             len(kb.CDDs),
	}
	if kb.Facts.Len() > 0 {
		info.InconsistencyRatio = float64(cs.AtomsInConflicts) / float64(kb.Facts.Len())
	}
	info.JoinPositionPct = joinPositionPct(kb.CDDs)
	return info, nil
}

// Describe exposes the indicator computation for externally built KBs (the
// Durum Wheat builder reuses it).
func Describe(kb *core.KB) (Info, error) { return describe(kb) }

func joinPositionPct(cdds []*logic.CDD) float64 {
	total, join := 0, 0
	for _, c := range cdds {
		jp := c.JoinPositions()
		for i, a := range c.Body {
			total += a.Arity()
			join += len(jp[i])
		}
	}
	if total == 0 {
		return 0
	}
	return float64(join) / float64(total)
}

func (g *generator) buildVocabulary() {
	for i := 0; i < g.p.NumPredicates; i++ {
		name := "p" + strconv.Itoa(i)
		g.preds = append(g.preds, name)
		g.arity[name] = g.p.ArityMin + g.rng.Intn(g.p.ArityMax-g.p.ArityMin+1)
	}
}

// buildCDDs constructs NumCDDs dependencies with connected bodies and the
// requested join-variable density.
func (g *generator) buildCDDs() error {
	varSeq := 0
	freshVar := func() logic.Term {
		varSeq++
		return logic.V("V" + strconv.Itoa(varSeq))
	}
	for i := 0; i < g.p.NumCDDs; i++ {
		var cdd *logic.CDD
		for attempt := 0; ; attempt++ {
			if attempt > 200 {
				return fmt.Errorf("synth: could not generate a non-degenerate CDD after %d attempts", attempt)
			}
			s := g.p.CDDAtomsMin + g.rng.Intn(g.p.CDDAtomsMax-g.p.CDDAtomsMin+1)
			var body []logic.Atom
			// used holds the variables actually occurring in emitted atoms
			// (tracking anything else would let the connectivity step pick
			// a "phantom" variable and emit a free-floating atom that
			// matches every fact of its predicate).
			var used []logic.Term
			for ai := 0; ai < s; ai++ {
				pred := g.preds[g.rng.Intn(len(g.preds))]
				n := g.arity[pred]
				args := make([]logic.Term, n)
				for j := range args {
					args[j] = freshVar()
				}
				if ai > 0 {
					// Connectivity: one position joins an earlier variable.
					args[g.rng.Intn(n)] = used[g.rng.Intn(len(used))]
				} else if s == 1 && n >= 2 {
					// Single-atom CDD: make it meaningful via a repeated var.
					args[1] = args[0]
				}
				// Extra join density.
				if ai > 0 {
					for j := range args {
						if g.rng.Float64() < g.p.JoinVarRatio/2 {
							args[j] = used[g.rng.Intn(len(used))]
						}
					}
				}
				used = append(used, logic.NewAtom(pred, args...).Vars()...)
				body = append(body, logic.NewAtom(pred, args...))
			}
			c, err := logic.NewCDD(body)
			if err != nil {
				continue // e.g. joins vanished; rebuild
			}
			// A body that folds onto a single anonymized fact forbids a
			// predicate outright — rejected by KB validation, so retry.
			if core.IsDegenerateCDD(c) {
				continue
			}
			cdd = c
			break
		}
		cdd.Label = "cdd" + strconv.Itoa(i)
		g.cdds = append(g.cdds, cdd)
	}
	return nil
}

// buildTGDs creates derivation chains of length Depth ending in CDD body
// predicates, plus inert noise rules for any leftover TGD budget.
func (g *generator) buildTGDs() {
	if g.p.NumTGDs == 0 {
		return
	}
	numChains := g.p.NumTGDs / g.p.Depth
	built := 0
	for c := 0; c < numChains; c++ {
		cddIdx := c % len(g.cdds)
		cdd := g.cdds[cddIdx]
		atomIdx := g.rng.Intn(len(cdd.Body))
		target := cdd.Body[atomIdx]
		n := target.Arity()
		vars := make([]logic.Term, n)
		for j := range vars {
			vars[j] = logic.V("X" + strconv.Itoa(j))
		}
		prev := fmt.Sprintf("chain%d_0", c)
		g.arity[prev] = n
		for step := 1; step < g.p.Depth; step++ {
			cur := fmt.Sprintf("chain%d_%d", c, step)
			g.arity[cur] = n
			g.tgds = append(g.tgds, &logic.TGD{
				Label: fmt.Sprintf("chain%d[%d]", c, step),
				Body:  []logic.Atom{logic.NewAtom(prev, vars...)},
				Head:  []logic.Atom{logic.NewAtom(cur, vars...)},
			})
			prev = cur
			built++
		}
		g.tgds = append(g.tgds, &logic.TGD{
			Label: fmt.Sprintf("chain%d[last]", c),
			Body:  []logic.Atom{logic.NewAtom(prev, vars...)},
			Head:  []logic.Atom{logic.NewAtom(target.Pred, vars...)},
		})
		built++
		g.chains = append(g.chains, chainInfo{
			cddIdx:  cddIdx,
			atomIdx: atomIdx,
			srcPred: fmt.Sprintf("chain%d_0", c),
		})
	}
	// Noise rules: pred-to-pred copies over fresh predicates that appear
	// in no CDD, so they can never create conflicts.
	for i := built; i < g.p.NumTGDs; i++ {
		src := fmt.Sprintf("noiseSrc%d", i)
		dst := fmt.Sprintf("noiseDst%d", i)
		g.arity[src], g.arity[dst] = 2, 2
		g.tgds = append(g.tgds, &logic.TGD{
			Label: "noise" + strconv.Itoa(i),
			Body:  []logic.Atom{logic.NewAtom(src, logic.V("X"), logic.V("Y"))},
			Head:  []logic.Atom{logic.NewAtom(dst, logic.V("X"), logic.V("Z"))},
		})
	}
}

// instantiate grounds a CDD body, extending the given partial
// substitution. Every unbound variable receives a globally unique
// constant: with shared constants, independently planted violations would
// cross-join by chance and inflate the conflict count and overlap far
// beyond the targets. Overlap is created *only* through seeds (cluster
// planting binds one body atom to the cluster's hub atom).
func (g *generator) instantiate(cdd *logic.CDD, seed logic.Subst) []logic.Atom {
	sub := logic.NewSubst()
	for v, t := range seed {
		sub[v] = t
	}
	joins := make(map[logic.Term]bool)
	for _, v := range cdd.JoinVars() {
		joins[v] = true
	}
	atoms := make([]logic.Atom, len(cdd.Body))
	for i, a := range cdd.Body {
		args := make([]logic.Term, len(a.Args))
		for j, t := range a.Args {
			if !t.IsVar() {
				args[j] = t
				continue
			}
			if b, ok := sub[t]; ok {
				args[j] = b
				continue
			}
			g.vioSeq++
			prefix := "v"
			if joins[t] {
				prefix = "j"
			}
			c := logic.C(prefix + strconv.Itoa(g.vioSeq))
			sub[t] = c
			args[j] = c
		}
		atoms[i] = logic.NewAtom(a.Pred, args...)
	}
	return atoms
}

// bindPattern unifies a body atom against a ground atom, returning the
// induced bindings; cluster members are seeded with the hub atom's
// bindings so they all share it.
func bindPattern(pattern, ground logic.Atom) logic.Subst {
	sub := logic.NewSubst()
	for j, t := range pattern.Args {
		if t.IsVar() {
			sub[t] = ground.Args[j]
		}
	}
	return sub
}

// plantViolations adds violating atom sets until the target number of
// conflicting atoms is reached.
func (g *generator) plantViolations() error {
	target := int(g.p.InconsistencyRatio * float64(g.p.NumFacts))
	guard := 0
	for len(g.inConflict) < target {
		guard++
		if guard > 50*g.p.NumFacts+1000 {
			return fmt.Errorf("synth: could not reach inconsistency ratio %.2f (reached %d/%d conflicting atoms)",
				g.p.InconsistencyRatio, len(g.inConflict), target)
		}
		viaChase := len(g.chains) > 0 && g.rng.Float64() < g.p.ChaseConflictFraction
		if viaChase {
			g.plantChaseViolation()
		} else {
			g.plantDirectViolation()
		}
		if g.st.Len() >= g.p.NumFacts {
			break
		}
	}
	return nil
}

func (g *generator) markConflict(id store.FactID) {
	g.inConflict[id] = true
}

// plantDirectViolation plants one violation of a random CDD; with
// probability OverlapProb it grows into a hub cluster of ClusterSize
// violations sharing one atom (the paper's overlapping-conflict structure,
// "avg scope").
func (g *generator) plantDirectViolation() {
	cdd := g.cdds[g.rng.Intn(len(g.cdds))]
	atoms := g.instantiate(cdd, nil)
	for _, a := range atoms {
		g.markConflict(g.st.MustAdd(a))
	}
	if len(cdd.Body) < 2 || g.rng.Float64() >= g.p.OverlapProb {
		return
	}
	// Grow a cluster around a hub atom of the first violation.
	hub := g.rng.Intn(len(cdd.Body))
	seed := bindPattern(cdd.Body[hub], atoms[hub])
	members := 1 + g.rng.Intn(g.p.ClusterSize)
	for m := 0; m < members && g.st.Len() < g.p.NumFacts; m++ {
		more := g.instantiate(cdd, seed)
		for i, a := range more {
			if i == hub {
				continue // shared with the hub atom already added
			}
			g.markConflict(g.st.MustAdd(a))
		}
	}
}

// plantChaseViolation grounds a CDD body but replaces the chain-derivable
// atom with the chain's source fact, so the violation appears only after
// Depth chase steps.
func (g *generator) plantChaseViolation() {
	chain := g.chains[g.rng.Intn(len(g.chains))]
	cdd := g.cdds[chain.cddIdx]
	atoms := g.instantiate(cdd, nil)
	for i, a := range atoms {
		if i == chain.atomIdx {
			src := logic.NewAtom(chain.srcPred, a.Args...)
			g.markConflict(g.st.MustAdd(src))
			continue
		}
		g.markConflict(g.st.MustAdd(a))
	}
}

// pad fills the fact set up to NumFacts with atoms that cannot join
// anything: every position receives a globally unique padding constant, so
// no CDD body homomorphism can involve them.
func (g *generator) pad() {
	for g.st.Len() < g.p.NumFacts {
		pred := g.preds[g.rng.Intn(len(g.preds))]
		n := g.arity[pred]
		args := make([]logic.Term, n)
		for j := range args {
			g.padSeq++
			args[j] = logic.C("pad" + strconv.Itoa(g.padSeq))
		}
		g.st.MustAdd(logic.NewAtom(pred, args...))
	}
}

// ChaseOptionsFor returns chase options sized for generated KBs (the
// default budgets are ample; this exists so callers can tighten them).
func ChaseOptionsFor(p Params) chase.Options {
	return chase.Options{}
}
