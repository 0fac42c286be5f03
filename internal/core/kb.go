// Package core implements the paper's primary contribution: update-based
// repairing of knowledge bases equipped with TGDs and CDDs — positions,
// fixes, fix application and reconstruction (diff), consistent and repair
// fixes (c-fix / r-fix), u-repairs, and Π-repairability (Algorithm 1)
// together with its optimized variant Π-RepOpt (§5).
package core

import (
	"fmt"

	"kbrepair/internal/chase"
	"kbrepair/internal/conflict"
	"kbrepair/internal/logic"
	"kbrepair/internal/store"
)

// KB is a knowledge base K = (F, ΣT, ΣC): a finite set of facts, TGDs and
// CDDs. The fact store is owned by the KB; rules are immutable and shared
// freely between copies.
type KB struct {
	Facts *store.Store
	TGDs  []*logic.TGD
	CDDs  []*logic.CDD
	// ChaseOpts bounds chase runs made on behalf of this KB.
	ChaseOpts chase.Options
}

// NewKB assembles a knowledge base and validates it: all rules must be
// structurally well-formed and the TGD set weakly acyclic (the paper's
// termination condition).
func NewKB(facts *store.Store, tgds []*logic.TGD, cdds []*logic.CDD) (*KB, error) {
	kb := &KB{Facts: facts, TGDs: tgds, CDDs: cdds}
	if err := kb.Validate(); err != nil {
		return nil, err
	}
	return kb, nil
}

// MustKB is like NewKB but panics on error.
func MustKB(facts *store.Store, tgds []*logic.TGD, cdds []*logic.CDD) *KB {
	kb, err := NewKB(facts, tgds, cdds)
	if err != nil {
		panic(err)
	}
	return kb
}

// Validate checks rule well-formedness and weak acyclicity of the TGDs.
func (kb *KB) Validate() error {
	if kb.Facts == nil {
		return fmt.Errorf("kb: nil fact store")
	}
	for _, t := range kb.TGDs {
		if err := t.Validate(); err != nil {
			return err
		}
	}
	for _, c := range kb.CDDs {
		if err := c.Validate(); err != nil {
			return err
		}
		if IsDegenerateCDD(c) {
			return fmt.Errorf("kb: CDD %s is degenerate: its body folds onto a single anonymized fact, "+
				"so it forbids a predicate outright and no u-repair can ever satisfy it", c)
		}
	}
	if rep := chase.IsWeaklyAcyclic(kb.TGDs); !rep.Acyclic {
		return fmt.Errorf("kb: TGDs not weakly acyclic (cycle: %v)", rep.Cycle)
	}
	return nil
}

// IsDegenerateCDD reports whether the CDD's body has a homomorphism into
// the fully anonymized instance holding one all-distinct-nulls fact per
// body predicate. Such a CDD is violated by *any* data over its predicates
// — even data whose every position is a unique unknown — which makes it a
// schema constraint ("this predicate must be empty") rather than a
// contradiction detector, and voids the §3 repairability guarantee. The
// paper's join-variable meaningfulness assumption is intended to exclude
// exactly these.
//
// The instance has one fact per predicate and pairwise distinct nulls, so
// the homomorphism must send every atom to its predicate's fact, argument
// by argument. It exists iff the body has no constant (a CDD has no
// nulls, see logic.CDD.Validate), atoms of one predicate agree on arity,
// and each variable occurs at one argument index of one predicate only.
func IsDegenerateCDD(c *logic.CDD) bool {
	type slot struct {
		pred string
		arg  int
	}
	arity := make(map[string]int)
	at := make(map[logic.Term]slot)
	for _, a := range c.Body {
		if n, ok := arity[a.Pred]; ok && n != len(a.Args) {
			return false
		}
		arity[a.Pred] = len(a.Args)
		for i, t := range a.Args {
			if !t.IsVar() {
				return false
			}
			if prev, ok := at[t]; ok && prev != (slot{a.Pred, i}) {
				return false
			}
			at[t] = slot{a.Pred, i}
		}
	}
	return true
}

// anonArgs returns the arguments of the next fact of a fully anonymized
// store: the null attributed to each of its positions.
func anonArgs(anon *store.Store, arity int) []logic.Term {
	args := make([]logic.Term, arity)
	for i := range args {
		args[i] = anon.NullForPos(store.Position{Fact: store.FactID(anon.Len()), Arg: i})
	}
	return args
}

// Clone returns a copy of the KB with an independent fact store. Rules are
// shared (they are immutable once built).
func (kb *KB) Clone() *KB {
	return &KB{
		Facts:     kb.Facts.Clone(),
		TGDs:      kb.TGDs,
		CDDs:      kb.CDDs,
		ChaseOpts: kb.ChaseOpts,
	}
}

// IsConsistent runs the optimized consistency check (CheckConsistency-Opt):
// the chase with CDDs compiled to ⊥-rules, aborted as soon as ⊥ appears.
// The check chases kb.Facts in place and truncates it back, so it writes
// the store: the KB owns its fact store, and a KB is not shared between
// goroutines, so the caller holds it exclusively — as every other KB
// mutation already requires.
func (kb *KB) IsConsistent() (bool, error) {
	return chase.IsConsistentOpt(kb.Facts, kb.TGDs, kb.CDDs, kb.ChaseOpts)
}

// IsConsistentUnder is IsConsistent with the check's chase span parented
// under the given trace span id. The inquiry engine calls it from its own
// goroutine after its last fan-out, when nothing else reads the store.
func (kb *KB) IsConsistentUnder(parent uint64) (bool, error) {
	opts := kb.ChaseOpts
	opts.TraceParent = parent
	return chase.IsConsistentOpt(kb.Facts, kb.TGDs, kb.CDDs, opts)
}

// IsConsistentNaive runs the unoptimized check: full chase, then evaluate
// every CDD body.
func (kb *KB) IsConsistentNaive() (bool, error) {
	return chase.IsConsistentNaive(kb.Facts, kb.TGDs, kb.CDDs, kb.ChaseOpts)
}

// AllConflicts computes allconflicts(K) on the chased KB.
func (kb *KB) AllConflicts() ([]*conflict.Conflict, *chase.Result, error) {
	return conflict.All(kb.Facts, kb.TGDs, kb.CDDs, kb.ChaseOpts)
}

// AllConflictsUnder returns the conflicts AllConflicts returns, with the
// scan's trace span parented under the given trace span id — the causal
// hook the inquiry engine uses to attribute detection time to the question
// that triggered it. It keeps no chase result: the scan chases kb.Facts in
// place and truncates it back on every exit (conflict.AllInPlace), so,
// like IsConsistentUnder, it writes the store, and the caller holds the KB
// exclusively for the call. A non-direct conflict's Facts name derived
// facts that are gone when it returns; its BaseFacts are base ids.
func (kb *KB) AllConflictsUnder(parent uint64) ([]*conflict.Conflict, error) {
	opts := kb.ChaseOpts
	opts.TraceParent = parent
	return conflict.AllInPlace(kb.Facts, kb.TGDs, kb.CDDs, opts)
}

// NaiveConflicts computes allconflicts_naive(K) on the base facts only.
func (kb *KB) NaiveConflicts() []*conflict.Conflict {
	return conflict.AllNaive(kb.Facts, kb.CDDs)
}

// RulesCompatible checks the paper's standing assumption that ΣT and ΣC
// are compatible, in the sense the repairing framework needs: the fully
// anonymized instance over the rule vocabulary — one fact per predicate
// with a distinct fresh null in every position — must be consistent. When
// it is not, some CDD is violated by TGD derivations alone (joins forced by
// frontier-variable copying or head constants), which would make every KB
// mentioning those predicates unrepairable and void the §3 repairability
// guarantee.
func (kb *KB) RulesCompatible() (bool, error) {
	rs := logic.RuleSet{TGDs: kb.TGDs, CDDs: kb.CDDs}
	preds := rs.Predicates()
	if len(preds) == 0 {
		return true, nil
	}
	anon := store.New()
	for p, arity := range preds {
		anon.MustAdd(logic.NewAtom(p, anonArgs(anon, arity)...))
	}
	// anon is private to this call, so the in-place check has it alone.
	return chase.IsConsistentOpt(anon, kb.TGDs, kb.CDDs, kb.ChaseOpts)
}

// Chase returns the chase Cl_ΣT(F) of the KB's facts.
func (kb *KB) Chase() (*chase.Result, error) {
	return chase.Run(kb.Facts, kb.TGDs, kb.ChaseOpts)
}
