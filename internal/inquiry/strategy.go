package inquiry

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"kbrepair/internal/conflict"
	"kbrepair/internal/core"
	"kbrepair/internal/store"
)

// Strategy is one of the §5 questioning strategies. A strategy decides
// which conflict to attack, which positions to offer fixes on
// (RETRIEVE-POSITIONS), and may adjust the immutable-position set after an
// answer (opti-prop's propagation).
type Strategy interface {
	// Name returns the paper's strategy name.
	Name() string
	// PickConflict chooses the conflict the next question targets.
	PickConflict(e *Engine, cs []*conflict.Conflict) *conflict.Conflict
	// Positions retrieves candidate positions for the chosen conflict; cs
	// is the full current conflict set (opti-mcd ranks across it).
	Positions(e *Engine, cs []*conflict.Conflict, x *conflict.Conflict) []core.Position
	// AfterAnswer runs after the chosen fix has been applied and its
	// position added to Π.
	AfterAnswer(e *Engine, cs []*conflict.Conflict, x *conflict.Conflict, offered []core.Position, chosen core.Fix)
}

// StrategyNames lists the four strategies in the paper's order.
var StrategyNames = []string{"random", "opti-join", "opti-prop", "opti-mcd"}

// ByName returns a fresh strategy instance by its paper name.
func ByName(name string) (Strategy, error) {
	switch name {
	case "random":
		return Random{}, nil
	case "opti-join":
		return OptiJoin{}, nil
	case "opti-prop":
		return OptiProp{}, nil
	case "opti-mcd":
		return OptiMCD{}, nil
	default:
		return nil, fmt.Errorf("unknown strategy %q (want one of %v)", name, StrategyNames)
	}
}

// AllStrategies returns one instance of each strategy, in the paper's order.
func AllStrategies() []Strategy {
	return []Strategy{Random{}, OptiJoin{}, OptiProp{}, OptiMCD{}}
}

func pickRandom(cs []*conflict.Conflict, rng *rand.Rand) *conflict.Conflict {
	if len(cs) == 0 {
		return nil
	}
	if rng == nil {
		return cs[0]
	}
	return cs[rng.Intn(len(cs))]
}

// Random is the baseline strategy: a random conflict, all of its positions.
type Random struct{}

// Name implements Strategy.
func (Random) Name() string { return "random" }

// PickConflict implements Strategy.
func (Random) PickConflict(e *Engine, cs []*conflict.Conflict) *conflict.Conflict {
	return pickRandom(cs, e.Rng)
}

// Positions implements Strategy: every position of every atom of the
// conflict (its base support, for chase conflicts).
func (Random) Positions(e *Engine, _ []*conflict.Conflict, x *conflict.Conflict) []core.Position {
	return x.Positions(e.KB.Facts)
}

// AfterAnswer implements Strategy (no-op).
func (Random) AfterAnswer(*Engine, []*conflict.Conflict, *conflict.Conflict, []core.Position, core.Fix) {
}

// OptiJoin restricts questions to join positions: changing a non-join
// position can never break the witnessing homomorphism, so asking about it
// is wasted effort (§5).
type OptiJoin struct{}

// Name implements Strategy.
func (OptiJoin) Name() string { return "opti-join" }

// PickConflict implements Strategy.
func (OptiJoin) PickConflict(e *Engine, cs []*conflict.Conflict) *conflict.Conflict {
	return pickRandom(cs, e.Rng)
}

// Positions implements Strategy: the join positions of a direct conflict;
// for chase-level conflicts (whose atoms are derived) it falls back to all
// contributing base positions, as in GenerateQuestion-Chase.
func (OptiJoin) Positions(e *Engine, _ []*conflict.Conflict, x *conflict.Conflict) []core.Position {
	if jp := x.JoinPositions(e.KB.Facts); len(jp) > 0 {
		return jp
	}
	return x.Positions(e.KB.Facts)
}

// AfterAnswer implements Strategy (no-op).
func (OptiJoin) AfterAnswer(*Engine, []*conflict.Conflict, *conflict.Conflict, []core.Position, core.Fix) {
}

// OptiProp is opti-join plus propagation: when the user picks one fix out
// of a question, the other offered positions are implicitly endorsed as
// correct and become immutable — unless they participate in another
// conflict (§5).
type OptiProp struct{}

// Name implements Strategy.
func (OptiProp) Name() string { return "opti-prop" }

// PickConflict implements Strategy.
func (OptiProp) PickConflict(e *Engine, cs []*conflict.Conflict) *conflict.Conflict {
	return pickRandom(cs, e.Rng)
}

// Positions implements Strategy (same as opti-join).
func (OptiProp) Positions(e *Engine, cs []*conflict.Conflict, x *conflict.Conflict) []core.Position {
	return OptiJoin{}.Positions(e, cs, x)
}

// AfterAnswer implements Strategy: propagate immutability to the other
// offered positions not involved in any other conflict.
func (OptiProp) AfterAnswer(e *Engine, cs []*conflict.Conflict, x *conflict.Conflict, offered []core.Position, chosen core.Fix) {
	for _, p := range offered {
		if p == chosen.Pos || e.Pi.Has(p) {
			continue
		}
		inOther := false
		for _, c := range cs {
			if c == x || c.Key() == x.Key() {
				continue
			}
			if c.InvolvesFact(p.Fact) {
				inOther = true
				break
			}
		}
		if !inOther {
			e.propagate(p)
		}
	}
}

// OptiMCD questions the Maximally ContaineD position: the vertex of maximum
// degree in the conflict hypergraph, i.e. the position occurring in the
// most conflicts. One question can thereby resolve many overlapping
// conflicts at once (§5).
type OptiMCD struct{}

// Name implements Strategy.
func (OptiMCD) Name() string { return "opti-mcd" }

// PickConflict implements Strategy: a conflict containing the position
// Positions offers — the first in cs that involves its fact.
func (OptiMCD) PickConflict(e *Engine, cs []*conflict.Conflict) *conflict.Conflict {
	p, ok := e.mcdPosition(cs)
	if !ok {
		return pickRandom(cs, e.Rng)
	}
	for _, c := range cs {
		if c.InvolvesFact(p.Fact) {
			return c
		}
	}
	return pickRandom(cs, e.Rng)
}

// Positions implements Strategy: the single maximum-rank position outside
// Π (ties broken randomly); falls back to the conflict's positions when no
// ranked position remains.
func (OptiMCD) Positions(e *Engine, cs []*conflict.Conflict, x *conflict.Conflict) []core.Position {
	if p, ok := e.mcdPosition(cs); ok {
		return []core.Position{p}
	}
	return x.Positions(e.KB.Facts)
}

// AfterAnswer implements Strategy (no-op).
func (OptiMCD) AfterAnswer(*Engine, []*conflict.Conflict, *conflict.Conflict, []core.Position, core.Fix) {
}

// ranking is the per-question state of the degree-ranking strategies: the
// position a question offers, chosen once from the hypergraph degrees and
// read by both PickConflict and Positions. beginQuestion resets it.
type ranking struct {
	// tracker is the phase-one tracker whose maintained degrees the
	// question ranks; nil in phase two, which ranks its re-scanned
	// chase-level set with conflict.PositionRanks.
	tracker *conflict.Tracker
	// pos is the position the strategy offers, once chosen is set; found
	// is false when no ranked position lies outside Π.
	pos           core.Position
	found, chosen bool
	// ties is bestRankedPositions' buffer, kept across questions.
	ties []core.Position
}

// beginQuestion resets the ranking state for a new question over the
// conflicts of tracker (nil for a chase-level set).
func (e *Engine) beginQuestion(tracker *conflict.Tracker) {
	e.rank = ranking{tracker: tracker, ties: e.rank.ties[:0]}
}

// degrees returns the hypergraph degrees of the question's conflict set
// cs: the phase-one tracker's maintained table, or one PositionRanks pass
// over cs in phase two. Read-only.
func (e *Engine) degrees(cs []*conflict.Conflict) map[store.Position]int {
	if e.rank.tracker != nil {
		return e.rank.tracker.Degrees()
	}
	return conflict.PositionRanks(cs, e.KB.Facts)
}

// bestRankedPositions returns the positions with the highest conflict
// count (hypergraph degree) among positions outside Π, sorted by
// (Fact, Arg).
func (e *Engine) bestRankedPositions(cs []*conflict.Conflict) []core.Position {
	best := -1
	ties := e.rank.ties[:0]
	for p, r := range e.degrees(cs) {
		if r < best || e.Pi.Has(p) {
			continue
		}
		if r > best {
			best = r
			ties = ties[:0]
		}
		ties = append(ties, p)
	}
	// Sort before any random pick: ties were collected in map order, and a
	// seeded choice is only reproducible over a deterministic slice.
	slices.SortFunc(ties, func(a, b core.Position) int {
		if a.Fact != b.Fact {
			return cmp.Compare(a.Fact, b.Fact)
		}
		return cmp.Compare(a.Arg, b.Arg)
	})
	e.rank.ties = ties
	return ties
}

// mcdPosition returns opti-mcd's position for the question: a maximum-
// degree position outside Π, ties broken uniformly at random with the
// engine's RNG, drawn once per question.
func (e *Engine) mcdPosition(cs []*conflict.Conflict) (core.Position, bool) {
	if !e.rank.chosen {
		ties := e.bestRankedPositions(cs)
		e.rank.chosen, e.rank.found = true, len(ties) > 0
		if !e.rank.found {
			return core.Position{}, false
		}
		p := ties[0]
		if len(ties) > 1 && e.Rng != nil {
			// The first draw is discarded: it only keeps seeded sessions
			// asking the questions they asked when the conflict and the
			// offered position were drawn independently.
			e.Rng.Intn(len(ties))
			p = ties[e.Rng.Intn(len(ties))]
		}
		e.rank.pos = p
	}
	return e.rank.pos, e.rank.found
}
