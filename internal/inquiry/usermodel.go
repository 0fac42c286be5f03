package inquiry

import (
	"math/rand"

	"kbrepair/internal/conflict"
	"kbrepair/internal/core"
	"kbrepair/internal/logic"
)

// This file implements the user-modeling extensions sketched in the
// paper's conclusion (§7): "formalization of user modeling to represent
// several classes of users (from domain experts to non-experts), and
// learning from provided user choices in the questioning strategies".

// NoisyOracle wraps an Oracle with an error rate: with probability
// ErrorRate it answers a uniformly random fix instead of one from its
// repair. It models a domain expert who occasionally slips, and lets the
// robustness of the inquiry be measured (soundness still guarantees a
// consistent outcome; only closeness to the intended repair degrades).
type NoisyOracle struct {
	Oracle    *Oracle
	ErrorRate float64
	Rng       *rand.Rand
	// Mistakes counts the noisy answers given.
	Mistakes int
}

// NewNoisyOracle builds a noisy oracle.
func NewNoisyOracle(oracle *Oracle, errorRate float64, seed int64) *NoisyOracle {
	return &NoisyOracle{Oracle: oracle, ErrorRate: errorRate, Rng: rand.New(rand.NewSource(seed))}
}

// Choose implements User.
func (u *NoisyOracle) Choose(kb *core.KB, q Question) (core.Fix, error) {
	if u.Rng.Float64() < u.ErrorRate {
		u.Mistakes++
		return q.Fixes[u.Rng.Intn(len(q.Fixes))], nil
	}
	f, err := u.Oracle.Choose(kb, q)
	if err != nil {
		// After a mistake the oracle's diff may not intersect the question
		// (its intended repair became unreachable at some positions); fall
		// back to a random answer rather than aborting the dialogue.
		u.Mistakes++
		return q.Fixes[u.Rng.Intn(len(q.Fixes))], nil
	}
	return f, nil
}

// CautiousUser models a non-expert who prefers to say "I don't know":
// it picks a fresh existential variable with probability NullBias, and a
// uniformly random domain value otherwise. NullBias 1 is the maximally
// conservative user (every fix anonymizes a value); NullBias 0 is a
// confident user who always commits to a concrete value when one exists.
type CautiousUser struct {
	NullBias float64
	Rng      *rand.Rand
}

// NewCautiousUser builds a cautious user.
func NewCautiousUser(nullBias float64, seed int64) *CautiousUser {
	return &CautiousUser{NullBias: nullBias, Rng: rand.New(rand.NewSource(seed))}
}

// Choose implements User.
func (u *CautiousUser) Choose(_ *core.KB, q Question) (core.Fix, error) {
	if q.Empty() {
		return core.Fix{}, ErrNoAnswer
	}
	var nulls, consts core.FixSet
	for _, f := range q.Fixes {
		if f.Value.Kind == logic.Null {
			nulls = append(nulls, f)
		} else {
			consts = append(consts, f)
		}
	}
	pick := func(fs core.FixSet) core.Fix { return fs[u.Rng.Intn(len(fs))] }
	if len(consts) == 0 {
		return pick(nulls), nil
	}
	if len(nulls) == 0 {
		return pick(consts), nil
	}
	if u.Rng.Float64() < u.NullBias {
		return pick(nulls), nil
	}
	return pick(consts), nil
}

// AdaptiveStrategy realizes "learning from provided user choices": it
// behaves like opti-mcd but weights each position's hypergraph degree by a
// learned per-predicate score. Whenever the user fixes a position of
// predicate p, the score of p grows — the strategy learns which predicates
// the user considers error-prone and steers subsequent questions there
// first.
type AdaptiveStrategy struct {
	weights map[string]float64
}

// NewAdaptiveStrategy builds the learning strategy.
func NewAdaptiveStrategy() *AdaptiveStrategy {
	return &AdaptiveStrategy{weights: make(map[string]float64)}
}

// Name implements Strategy.
func (s *AdaptiveStrategy) Name() string { return "adaptive" }

func (s *AdaptiveStrategy) weight(pred string) float64 {
	if w, ok := s.weights[pred]; ok {
		return w
	}
	return 1
}

// bestWeighted returns the position with the highest degree×weight score
// outside Π, the smallest by (Fact, Arg) among equal scores — computed
// once per question from the degrees opti-mcd ranks.
func (s *AdaptiveStrategy) bestWeighted(e *Engine, cs []*conflict.Conflict) (core.Position, bool) {
	if e.rank.chosen {
		return e.rank.pos, e.rank.found
	}
	best := -1.0
	var bestPos core.Position
	found := false
	for p, r := range e.degrees(cs) {
		if e.Pi.Has(p) {
			continue
		}
		score := float64(r) * s.weight(e.KB.Facts.FactRef(p.Fact).Pred)
		if score > best || (score == best && (p.Fact < bestPos.Fact || (p.Fact == bestPos.Fact && p.Arg < bestPos.Arg))) {
			best, bestPos, found = score, p, true
		}
	}
	e.rank.pos, e.rank.found, e.rank.chosen = bestPos, found, true
	return bestPos, found
}

// PickConflict implements Strategy: the conflict containing the best
// weighted position.
func (s *AdaptiveStrategy) PickConflict(e *Engine, cs []*conflict.Conflict) *conflict.Conflict {
	if p, ok := s.bestWeighted(e, cs); ok {
		for _, c := range cs {
			if c.InvolvesFact(p.Fact) {
				return c
			}
		}
	}
	return pickRandom(cs, e.Rng)
}

// Positions implements Strategy: the single best weighted position.
func (s *AdaptiveStrategy) Positions(e *Engine, cs []*conflict.Conflict, x *conflict.Conflict) []core.Position {
	if p, ok := s.bestWeighted(e, cs); ok {
		return []core.Position{p}
	}
	return x.Positions(e.KB.Facts)
}

// AfterAnswer implements Strategy: reinforce the predicate the user just
// fixed.
func (s *AdaptiveStrategy) AfterAnswer(e *Engine, _ []*conflict.Conflict, _ *conflict.Conflict, _ []core.Position, chosen core.Fix) {
	pred := e.KB.Facts.FactRef(chosen.Pos.Fact).Pred
	s.weights[pred] = s.weight(pred) + 0.5
}
