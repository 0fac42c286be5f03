// Package inquiry implements the user-intervention layer of the paper:
// sound questions (Algorithm 2/5), the inquiry dialogue (Algorithm 3), the
// optimized two-phase strategy inquiry (Algorithm 4), the four questioning
// strategies of §5 (random, opti-join, opti-prop, opti-mcd), and the user
// models (oracle, simulated random user, function-backed user).
package inquiry

import (
	"fmt"
	"strings"

	"kbrepair/internal/conflict"
	"kbrepair/internal/core"
)

// Question is a sound question φ = {f1, …, fn}: a set of fixes such that
// choosing any one of them keeps the knowledge base Π′-repairable
// (Def. 4.1).
type Question struct {
	// Conflict is the conflict the question was generated from.
	Conflict *conflict.Conflict
	// Fixes are the candidate fixes offered to the user.
	Fixes core.FixSet
	// Phase is 1 for naive-conflict questions and 2 for chase-discovered
	// questions (Algorithm 4).
	Phase int
}

// Empty reports whether the question offers no fix.
func (q Question) Empty() bool { return len(q.Fixes) == 0 }

// Contains reports whether the fix is one of the offered answers.
func (q Question) Contains(f core.Fix) bool { return q.Fixes.Contains(f) }

// Describe renders the question for a human, one fix per line, in the
// paper's (A, i, t) notation.
func (q Question) Describe(kb *core.KB) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Which fix is true? (%d candidates)\n", len(q.Fixes))
	for i, f := range q.Fixes {
		fmt.Fprintf(&sb, "  [%d] %s\n", i+1, f.Describe(kb.Facts))
	}
	return sb.String()
}

// SoundQuestion implements Algorithms 2/5: it generates, for each candidate
// position outside Π, every fix drawn from the active domain plus one fresh
// existential variable, and filters out any fix that would render the
// knowledge base not Π′-repairable (checked through the optimized
// Π-RepOpt). Given that K is Π-repairable and positions come from a live
// conflict, the result is non-empty (Lemma 4.3).
func SoundQuestion(kb *core.KB, pc *core.PiChecker, pi core.Pi, positions []core.Position, maxValues int) (core.FixSet, error) {
	seen := make(map[core.Position]bool)
	var cands core.FixSet
	for _, pos := range positions {
		if pi.Has(pos) || seen[pos] {
			continue
		}
		seen[pos] = true
		vals := core.FixValues(kb, pos)
		if maxValues > 0 && len(vals) > maxValues {
			// Keep the fresh null (last) and the first maxValues-1 domain
			// values; the null guarantees answerability.
			vals = append(vals[:maxValues-1:maxValues-1], vals[len(vals)-1])
		}
		for _, v := range vals {
			cands = append(cands, core.Fix{Pos: pos, Value: v})
		}
	}
	sound, err := pc.CheckBatch(pi, cands)
	if err != nil {
		return nil, err
	}
	var out core.FixSet
	for i, ok := range sound {
		if ok {
			out = append(out, cands[i])
		}
	}
	return out, nil
}
