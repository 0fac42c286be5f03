// External test package because synth depends on conflict (through core).
package conflict_test

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"kbrepair/internal/chase"
	"kbrepair/internal/conflict"
	"kbrepair/internal/core"
	"kbrepair/internal/durum"
	"kbrepair/internal/logic"
	"kbrepair/internal/par"
	"kbrepair/internal/store"
	"kbrepair/internal/synth"
)

// refJoinPositions is the per-conflict join-position computation that
// PositionRanks's per-CDD table replaced: the CDD's join arguments from
// logic.CDD.JoinPositions, then its constant arguments, per body atom,
// each base position once.
func refJoinPositions(c *conflict.Conflict) []store.Position {
	if !c.Direct {
		return nil
	}
	joinArgs := c.CDD.JoinPositions()
	var out []store.Position
	seen := make(map[store.Position]bool)
	add := func(p store.Position) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for i, a := range c.CDD.Body {
		for _, j := range joinArgs[i] {
			add(store.Position{Fact: c.Facts[i], Arg: j})
		}
		for j, t := range a.Args {
			if t.IsConst() {
				add(store.Position{Fact: c.Facts[i], Arg: j})
			}
		}
	}
	return out
}

// TestPositionRanksMatchesPerConflictJoinPositions: on synth KBs with and
// without TGDs (so chase-level, non-direct conflicts take the fallback) and
// on Durum Wheat (whose CDD bodies hold constants), PositionRanks equals the ranks computed conflict by conflict, at one
// worker and at four, and JoinPositions keeps the reference order.
func TestPositionRanksMatchesPerConflictJoinPositions(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	var kbs []*core.KB
	for _, p := range []synth.Params{
		{Seed: 3, NumFacts: 600, InconsistencyRatio: 0.4, NumCDDs: 12, JoinVarRatio: 0.5},
		{Seed: 5, NumFacts: 300, InconsistencyRatio: 0.25, NumCDDs: 10, NumTGDs: 6, JoinVarRatio: 0.3},
	} {
		g, err := synth.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		kbs = append(kbs, g.KB)
	}
	dw, _, err := durum.Build(durum.V2)
	if err != nil {
		t.Fatal(err)
	}
	kbs = append(kbs, dw)
	var large, indirect, consts bool
	for k, kb := range kbs {
		cs, _, err := conflict.All(kb.Facts, kb.Rules, chase.Options{})
		if err != nil {
			t.Fatal(err)
		}
		large = large || len(cs) > 64
		want := make(map[store.Position]int)
		for _, c := range cs {
			indirect = indirect || !c.Direct
			for _, a := range c.CDD.Body {
				consts = consts || slices.ContainsFunc(a.Args, logic.Term.IsConst)
			}
			ps := refJoinPositions(c)
			if got := c.JoinPositions(kb.Facts); !slices.Equal(got, ps) {
				t.Fatalf("kb %d: JoinPositions(%s) = %v, want %v", k, c, got, ps)
			}
			if len(ps) == 0 {
				ps = c.Positions(kb.Facts)
			}
			for _, q := range ps {
				want[q]++
			}
		}
		for _, w := range []int{1, 4} {
			par.SetWorkers(w)
			if got := conflict.PositionRanks(cs, kb.Facts); !maps.Equal(got, want) {
				t.Fatalf("kb %d, workers %d: PositionRanks differs from the per-conflict ranks (%d vs %d positions)",
					k, w, len(got), len(want))
			}
		}
	}
	if !large || !indirect || !consts {
		t.Fatalf("table too weak: more than 64 conflicts %v, non-direct conflicts %v, body constants %v",
			large, indirect, consts)
	}
}

// TestTrackerDegreesMatchPositionRanks: on synth KBs with and without TGDs
// and on Durum Wheat, the degrees a tracker maintains through random value
// updates equal PositionRanks over its live conflicts after every step,
// and the degrees of a tracker rebuilt from scratch at that step (the
// DisableIncremental path) equal PositionRanks over its own conflicts. (The
// two trackers may disagree on which copy of a duplicated atom a conflict
// names; see NewTrackerOf.) Values are drawn as fixes are — from the
// position's active domain or a fresh null — mostly at positions of live
// conflicts, so steps both resolve and create conflicts.
func TestTrackerDegreesMatchPositionRanks(t *testing.T) {
	var kbs []*core.KB
	for _, p := range []synth.Params{
		{Seed: 3, NumFacts: 400, InconsistencyRatio: 0.4, NumCDDs: 12, JoinVarRatio: 0.5},
		{Seed: 5, NumFacts: 300, InconsistencyRatio: 0.25, NumCDDs: 10, NumTGDs: 6, JoinVarRatio: 0.3},
	} {
		g, err := synth.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		kbs = append(kbs, g.KB)
	}
	dw, _, err := durum.Build(durum.V2)
	if err != nil {
		t.Fatal(err)
	}
	kbs = append(kbs, dw)
	for k, kb := range kbs {
		rng := rand.New(rand.NewSource(int64(k) + 1))
		tr := conflict.NewTracker(kb.Facts, kb.Rules)
		if tr.Len() == 0 {
			t.Fatalf("kb %d has no naive conflicts", k)
		}
		tr.Degrees()
		var created, resolved int
		for step := 0; step < 60; step++ {
			var id store.FactID
			if cs := tr.Conflicts(); len(cs) > 0 && rng.Intn(4) > 0 {
				c := cs[rng.Intn(len(cs))]
				id = c.BaseFacts[rng.Intn(len(c.BaseFacts))]
			} else {
				id = store.FactID(rng.Intn(kb.Facts.Len()))
			}
			pos := store.Position{Fact: id, Arg: rng.Intn(kb.Facts.Arity(id))}
			vals := core.FixValues(kb, pos)
			if _, err := kb.Facts.SetValue(pos, vals[rng.Intn(len(vals))]); err != nil {
				t.Fatal(err)
			}
			before := tr.Len()
			tr.Update(id)
			if tr.Len() > before {
				created++
			} else if tr.Len() < before {
				resolved++
			}
			want := conflict.PositionRanks(tr.Conflicts(), kb.Facts)
			if got := tr.Degrees(); !maps.Equal(got, want) {
				t.Fatalf("kb %d, step %d: maintained degrees (%d positions) differ from PositionRanks (%d positions)",
					k, step, len(got), len(want))
			}
			rebuilt := conflict.NewTracker(kb.Facts, kb.Rules)
			want = conflict.PositionRanks(rebuilt.Conflicts(), kb.Facts)
			if got := rebuilt.Degrees(); !maps.Equal(got, want) {
				t.Fatalf("kb %d, step %d: rebuilt tracker's degrees (%d positions) differ from PositionRanks (%d positions)",
					k, step, len(got), len(want))
			}
		}
		if created == 0 || resolved == 0 {
			t.Fatalf("kb %d: steps too weak: %d created conflicts, %d resolved some", k, created, resolved)
		}
	}
}
