// Package kbrepair is a user-guided, update-based repairing framework for
// knowledge bases equipped with tuple-generating dependencies (TGDs) and
// contradiction-detecting dependencies (CDDs), implementing Arioua &
// Bonifati, "User-guided Repairing of Inconsistent Knowledge Bases"
// (EDBT 2018).
//
// A knowledge base K = (F, ΣT, ΣC) is a set of facts with TGDs and CDDs.
// When K is inconsistent — some CDD body is entailed by the chase of F —
// the framework repairs it by updating values at *positions* (fact,
// argument) rather than deleting whole facts, driving the choice of
// positions and values through an interactive inquiry with a user:
//
//	kb, _ := kbrepair.ParseKB(src)
//	engine := kbrepair.NewEngine(kb, kbrepair.OptiMCD(), kbrepair.NewSimulatedUser(1), 1, kbrepair.EngineOptions{})
//	result, _ := engine.Run()       // kb is now consistent
//
// Questions are guaranteed sound (any answer keeps the KB repairable),
// the dialogue always terminates in a consistent KB, the delay between
// questions is polynomial, and with an oracle user the dialogue reproduces
// the oracle's repair exactly. Four questioning strategies trade question
// count against computation: random, opti-join, opti-prop and opti-mcd.
//
// The packages under internal/ hold the substrates: the indexed fact
// store, homomorphism search, the restricted chase for weakly-acyclic
// TGDs, conflict detection and maintenance, the repair core, the inquiry
// engine, synthetic and Durum-Wheat workload generators, and the
// experiment harness that regenerates every figure of the paper (see
// DESIGN.md and EXPERIMENTS.md).
package kbrepair

import (
	"fmt"
	"os"

	"kbrepair/internal/chase"
	"kbrepair/internal/conflict"
	"kbrepair/internal/core"
	"kbrepair/internal/cqa"
	"kbrepair/internal/deletion"
	"kbrepair/internal/durum"
	"kbrepair/internal/inquiry"
	"kbrepair/internal/logic"
	"kbrepair/internal/parser"
	"kbrepair/internal/store"
	"kbrepair/internal/synth"
)

// Core vocabulary.
type (
	// Term is a constant, rule variable or labeled null.
	Term = logic.Term
	// Atom is a predicate applied to terms.
	Atom = logic.Atom
	// Subst is a substitution (variable bindings).
	Subst = logic.Subst
	// TGD is a tuple-generating dependency B → ∃z H.
	TGD = logic.TGD
	// CDD is a contradiction-detecting dependency B → ⊥.
	CDD = logic.CDD
	// Store is an indexed set of facts with stable fact identities.
	Store = store.Store
	// FactID identifies a fact within a Store.
	FactID = store.FactID
	// Position is one argument slot of one fact — the unit of repair.
	Position = store.Position
	// KB is a knowledge base (F, ΣT, ΣC).
	KB = core.KB
	// Fix is a position fix (position, new value).
	Fix = core.Fix
	// FixSet is a set of fixes.
	FixSet = core.FixSet
	// Pi is a set of immutable positions.
	Pi = core.Pi
	// Conflict is one CDD violation with its witnessing homomorphism.
	Conflict = conflict.Conflict
	// ChaseResult is a chase run with provenance.
	ChaseResult = chase.Result
	// ChaseOptions bound chase runs.
	ChaseOptions = chase.Options
	// Engine drives an inquiry dialogue.
	Engine = inquiry.Engine
	// EngineOptions tune an inquiry run.
	EngineOptions = inquiry.Options
	// InquiryResult summarizes a finished inquiry.
	InquiryResult = inquiry.Result
	// Question is a sound question (a set of fixes).
	Question = inquiry.Question
	// Strategy is a questioning strategy.
	Strategy = inquiry.Strategy
	// User answers questions.
	User = inquiry.User
	// Oracle is the user model that has a repair in mind.
	Oracle = inquiry.Oracle
	// SimulatedUser answers uniformly at random.
	SimulatedUser = inquiry.SimulatedUser
	// FuncUser adapts a function to the User interface.
	FuncUser = inquiry.FuncUser
	// SynthParams configure the synthetic KB generator.
	SynthParams = synth.Params
	// SynthInfo describes a generated KB's structure.
	SynthInfo = synth.Info
)

// Const returns the constant with the given name.
func Const(name string) Term { return logic.C(name) }

// Var returns the rule variable with the given name.
func Var(name string) Term { return logic.V(name) }

// NullTerm returns the labeled null with the given label.
func NullTerm(label string) Term { return logic.N(label) }

// NewAtom builds an atom.
func NewAtom(pred string, args ...Term) Atom { return logic.NewAtom(pred, args...) }

// NewTGD builds and validates a TGD.
func NewTGD(body, head []Atom) (*TGD, error) { return logic.NewTGD(body, head) }

// NewCDD builds and validates a CDD.
func NewCDD(body []Atom) (*CDD, error) { return logic.NewCDD(body) }

// NewStore returns an empty fact store.
func NewStore() *Store { return store.New() }

// StoreFromAtoms builds a store from ground atoms.
func StoreFromAtoms(atoms []Atom) (*Store, error) { return store.FromAtoms(atoms) }

// NewKB assembles and validates a knowledge base (rules well-formed,
// TGDs weakly acyclic, no degenerate CDDs).
func NewKB(facts *Store, tgds []*TGD, cdds []*CDD) (*KB, error) {
	return core.NewKB(facts, tgds, cdds)
}

// ParseKB parses the text format (see internal/parser) into a KB.
func ParseKB(src string) (*KB, error) {
	doc, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	st, err := doc.Store()
	if err != nil {
		return nil, err
	}
	return core.NewKB(st, doc.TGDs, doc.CDDs)
}

// LoadKB reads and parses a knowledge-base file.
func LoadKB(path string) (*KB, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	kb, err := ParseKB(string(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return kb, nil
}

// FormatKB renders a KB in the text format; ParseKB recovers it.
func FormatKB(kb *KB) string {
	return parser.Serialize(&parser.Document{
		Facts: kb.Facts.Atoms(),
		TGDs:  kb.TGDs,
		CDDs:  kb.CDDs,
	})
}

// SaveKB writes a KB to a file in the text format.
func SaveKB(kb *KB, path string) error {
	return os.WriteFile(path, []byte(FormatKB(kb)), 0o644)
}

// Apply computes apply(F, P) on a copy of the store.
func Apply(s *Store, fs FixSet) (*Store, error) { return core.Apply(s, fs) }

// Diff reconstructs the fix set between a store and its update.
func Diff(f, fp *Store) (FixSet, error) { return core.Diff(f, fp) }

// IsCFix reports whether the fix set yields a consistent update.
func IsCFix(kb *KB, fs FixSet) (bool, error) { return core.IsCFix(kb, fs) }

// IsRFix reports whether the fix set is a repair fix (minimal c-fix).
func IsRFix(kb *KB, fs FixSet) (bool, error) { return core.IsRFix(kb, fs) }

// PiRepairable implements Algorithm 1: whether the KB can be repaired
// without touching the positions in pi.
func PiRepairable(kb *KB, pi Pi) (bool, error) { return core.PiRepairable(kb, pi) }

// NewPi builds a Π set from positions.
func NewPi(ps ...Position) Pi { return core.NewPi(ps...) }

// AllConflicts computes the conflicts of the (chased) KB.
func AllConflicts(kb *KB) ([]*Conflict, *ChaseResult, error) { return kb.AllConflicts() }

// NaiveConflicts computes the conflicts visible without chasing.
func NaiveConflicts(kb *KB) []*Conflict { return kb.NaiveConflicts() }

// NewEngine builds an inquiry engine over the KB (which it will mutate).
func NewEngine(kb *KB, strat Strategy, user User, seed int64, opts EngineOptions) *Engine {
	return inquiry.New(kb, strat, user, seed, opts)
}

// NewOracle builds the §4.1 oracle user for a target repair.
func NewOracle(target *Store, seed int64) *Oracle { return inquiry.NewOracle(target, seed) }

// NewSimulatedUser builds the random-choice user of the paper's
// experimental setup.
func NewSimulatedUser(seed int64) *SimulatedUser { return inquiry.NewSimulatedUser(seed) }

// RandomStrategy returns the baseline questioning strategy.
func RandomStrategy() Strategy { return inquiry.Random{} }

// OptiJoin returns the join-position strategy.
func OptiJoin() Strategy { return inquiry.OptiJoin{} }

// OptiProp returns the join-position strategy with propagation.
func OptiProp() Strategy { return inquiry.OptiProp{} }

// OptiMCD returns the maximally-contained-position strategy.
func OptiMCD() Strategy { return inquiry.OptiMCD{} }

// StrategyByName resolves a strategy by its paper name
// (random, opti-join, opti-prop, opti-mcd).
func StrategyByName(name string) (Strategy, error) { return inquiry.ByName(name) }

// GenerateSynthetic builds a synthetic KB per §6 of the paper.
func GenerateSynthetic(p SynthParams) (*KB, SynthInfo, error) {
	g, err := synth.Generate(p)
	if err != nil {
		return nil, SynthInfo{}, err
	}
	return g.KB, g.Info, nil
}

// BuildDurumWheat builds the Durum Wheat KB substitute (version 1 or 2).
func BuildDurumWheat(version int) (*KB, SynthInfo, error) {
	return durum.Build(durum.Version(version))
}

// DescribeKB computes the structural indicators the paper reports for a KB
// (conflicts, inconsistency ratio, overlap structure, chase size). It chases
// the KB's facts in place and truncates them back, so, like any KB
// mutation, it needs the KB to itself for the call.
func DescribeKB(kb *KB) (SynthInfo, error) { return synth.Describe(kb) }

// IsWeaklyAcyclic checks chase termination for a TGD set.
func IsWeaklyAcyclic(tgds []*TGD) bool { return chase.IsWeaklyAcyclic(tgds).Acyclic }

// ---- Extensions beyond the paper's core (documented in DESIGN.md) ----

// User-model extensions (§7 future work: user classes and learning).
type (
	// NoisyOracle is an oracle that errs with a configurable probability.
	NoisyOracle = inquiry.NoisyOracle
	// CautiousUser prefers "unknown" (fresh nulls) with a configurable bias.
	CautiousUser = inquiry.CautiousUser
	// AdaptiveStrategy learns per-predicate error weights from the user's
	// choices and steers questions toward them.
	AdaptiveStrategy = inquiry.AdaptiveStrategy
)

// NewNoisyOracle wraps an oracle with an error rate in [0, 1].
func NewNoisyOracle(oracle *Oracle, errorRate float64, seed int64) *NoisyOracle {
	return inquiry.NewNoisyOracle(oracle, errorRate, seed)
}

// NewCautiousUser builds a user choosing fresh nulls with the given bias.
func NewCautiousUser(nullBias float64, seed int64) *CautiousUser {
	return inquiry.NewCautiousUser(nullBias, seed)
}

// NewAdaptiveStrategy builds the learning strategy.
func NewAdaptiveStrategy() *AdaptiveStrategy { return inquiry.NewAdaptiveStrategy() }

// Deletion-based repairing baseline (the §1 comparison).
type (
	// DeletionRepair is a repair obtained by removing whole facts.
	DeletionRepair = deletion.Repair
	// RepairComparison contrasts deletion- and update-based information loss.
	RepairComparison = deletion.Comparison
)

// GreedyDeletionRepair computes a deletion repair via the greedy
// hitting-set heuristic over the conflict hypergraph.
func GreedyDeletionRepair(kb *KB) (*DeletionRepair, error) { return deletion.GreedyRepair(kb) }

// MinimalDeletionRepairs enumerates all subset-minimal deletion repairs
// (exponential; refuses more than maxCandidates conflicting facts).
func MinimalDeletionRepairs(kb *KB, maxCandidates int) ([]*DeletionRepair, error) {
	return deletion.MinimalRepairs(kb, maxCandidates)
}

// CompareRepairs contrasts a greedy deletion repair with an update repair's
// fix set on the same KB.
func CompareRepairs(kb *KB, fixes FixSet) (*RepairComparison, error) {
	return deletion.Compare(kb, fixes)
}

// Session journaling: record an inquiry and replay it verbatim.
type (
	// Journal is a recorded inquiry session (JSON-serializable).
	Journal = inquiry.Journal
	// RecordingUser wraps a user and records every exchange.
	RecordingUser = inquiry.RecordingUser
	// ReplayUser answers questions from a recorded journal.
	ReplayUser = inquiry.ReplayUser
)

// NewRecordingUser wraps a user with a fresh journal.
func NewRecordingUser(u User, strategy string) *RecordingUser {
	return inquiry.NewRecordingUser(u, strategy)
}

// NewRecordingSession wraps a user with a fresh journal carrying the
// session header (strategy, seed, KB digest); replays of such journals
// verify the KB before applying any fix.
func NewRecordingSession(u User, strategy string, seed int64, kb *KB) *RecordingUser {
	return inquiry.NewRecordingSession(u, strategy, seed, kb)
}

// NewReplayUser replays a recorded journal.
func NewReplayUser(j *Journal) *ReplayUser { return inquiry.NewReplayUser(j) }

// SaveJournal writes a journal to a JSON file.
func SaveJournal(j *Journal, path string) error { return inquiry.SaveJournal(j, path) }

// LoadJournal reads a journal from a JSON file.
func LoadJournal(path string) (*Journal, error) { return inquiry.LoadJournal(path) }

// Query answering (the [28]-style consistent-answer semantics).
type (
	// Query is a conjunctive query with distinguished answer variables.
	Query = cqa.Query
	// AnswerTuple is one query answer.
	AnswerTuple = cqa.Tuple
	// QueryResult aggregates answers over sampled u-repairs.
	QueryResult = cqa.Result
)

// CertainAnswers computes Q(F, ΣT) over the KB's chase.
func CertainAnswers(kb *KB, q Query) ([]AnswerTuple, error) { return cqa.CertainAnswers(kb, q) }

// SampledConsistentAnswers approximates consistent (cautious) and possible
// (brave) answers by sampling u-repairs through simulated inquiries.
func SampledConsistentAnswers(kb *KB, q Query, samples int, seed int64) (*QueryResult, error) {
	return cqa.SampledAnswers(kb, q, samples, seed)
}
