// Differential property test: the compiled plan engine against the retained
// reference executor on randomized synthetic workloads. Lives in an external
// test package because internal/synth (via core and chase) depends on homo.
package homo_test

import (
	"fmt"
	"sort"
	"testing"

	"kbrepair/internal/homo"
	"kbrepair/internal/logic"
	"kbrepair/internal/par"
	"kbrepair/internal/synth"
)

// workerCounts is the determinism matrix every differential case runs under:
// the sequential baseline, a small pool, and an oversubscribed pool.
var workerCounts = []int{1, 2, 8}

// TestPlanDifferentialSynth checks, over a table of KB sizes and seeds, that
// for every rule-derived conjunction (CDD bodies, TGD bodies and heads) the
// compiled engine enumerates exactly the reference engine's match set — the
// same bindings with the same fact assignments — both unseeded and seeded
// with the first match's bindings, in every compile mode and at every worker
// count. (Enumeration order is a plan property since the compile-time
// orderer; the set is the engine contract.)
func TestPlanDifferentialSynth(t *testing.T) {
	cases := []synth.Params{
		{Seed: 1, NumFacts: 40, InconsistencyRatio: 0.2, NumCDDs: 5},
		{Seed: 2, NumFacts: 120, InconsistencyRatio: 0.25, NumCDDs: 8, NumTGDs: 4, JoinVarRatio: 0.3},
		{Seed: 3, NumFacts: 300, InconsistencyRatio: 0.1, NumCDDs: 10, NumTGDs: 6, JoinVarRatio: 0.5},
		{Seed: 4, NumFacts: 80, InconsistencyRatio: 0.4, NumCDDs: 12, NumTGDs: 2, JoinVarRatio: 0.2},
	}
	defer par.SetWorkers(0)
	for _, params := range cases {
		params := params
		t.Run(fmt.Sprintf("seed%d_facts%d", params.Seed, params.NumFacts), func(t *testing.T) {
			g, err := synth.Generate(params)
			if err != nil {
				t.Fatal(err)
			}
			var bodies [][]logic.Atom
			for _, c := range g.KB.CDDs {
				bodies = append(bodies, c.Body)
			}
			for _, r := range g.KB.TGDs {
				bodies = append(bodies, r.Body, r.Head)
			}
			for _, w := range workerCounts {
				par.SetWorkers(w)
				total := 0
				for bi, body := range bodies {
					want := collect(t, body, g, true)
					total += len(want)
					for _, opts := range compileVariants(g) {
						got := collectWith(t, body, g, nil, opts)
						if fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("workers=%d body %d (%v) opts %+v: match sets differ\n got %v\nwant %v",
								w, bi, body, opts, got, want)
						}
					}
					if len(want) == 0 {
						continue
					}
					// Seeded run: pin the first match's first binding.
					seed := firstBinding(t, body, g)
					wantSeeded := collectSeeded(t, body, g, seed, true)
					for _, opts := range compileVariants(g) {
						gotSeeded := collectWith(t, body, g, seed, opts)
						if fmt.Sprint(gotSeeded) != fmt.Sprint(wantSeeded) {
							t.Fatalf("workers=%d body %d seeded %v opts %+v: match sets differ\n got %v\nwant %v",
								w, bi, seed, opts, gotSeeded, wantSeeded)
						}
					}
				}
				if total == 0 {
					t.Fatal("no conjunction matched anything; differential test would be vacuous")
				}
			}
		})
	}
}

// TestPlanDifferentialRepeatedVars drives bodies with repeated variables —
// inside one atom and across atoms — through every kernel against the
// reference set.
func TestPlanDifferentialRepeatedVars(t *testing.T) {
	g, err := synth.Generate(synth.Params{Seed: 7, NumFacts: 90, InconsistencyRatio: 0.3, NumCDDs: 6, JoinVarRatio: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	preds := map[string]int{}
	for _, id := range g.KB.Facts.IDs() {
		a := g.KB.Facts.Fact(id)
		if a.Arity() >= 2 {
			preds[a.Pred] = a.Arity()
		}
	}
	var p2 string
	for p, ar := range preds {
		if ar == 2 && (p2 == "" || p < p2) {
			p2 = p
		}
	}
	if p2 == "" {
		t.Skip("no binary predicate in synth KB")
	}
	bodies := [][]logic.Atom{
		{logic.NewAtom(p2, logic.V("X"), logic.V("X"))},
		{logic.NewAtom(p2, logic.V("X"), logic.V("Y")), logic.NewAtom(p2, logic.V("Y"), logic.V("X"))},
		{logic.NewAtom(p2, logic.V("X"), logic.V("Y")), logic.NewAtom(p2, logic.V("Y"), logic.V("Z")), logic.NewAtom(p2, logic.V("Z"), logic.V("X"))},
	}
	for bi, body := range bodies {
		want := collect(t, body, g, true)
		for _, opts := range compileVariants(g) {
			got := collectWith(t, body, g, nil, opts)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("body %d (%v) opts %+v: match sets differ\n got %v\nwant %v", bi, body, opts, got, want)
			}
		}
	}
}

// compileVariants is the kernel matrix each differential body runs through:
// structural auto, stats-informed auto, and both kernels forced.
func compileVariants(g *synth.Generated) []homo.CompileOpts {
	return []homo.CompileOpts{
		{},
		{Stats: g.KB.Facts},
		{Mode: homo.ModeStatic},
		{Mode: homo.ModeWCOJ},
	}
}

func collect(t *testing.T, body []logic.Atom, g *synth.Generated, reference bool) []string {
	t.Helper()
	return collectSeeded(t, body, g, nil, reference)
}

func collectSeeded(t *testing.T, body []logic.Atom, g *synth.Generated, seed logic.Subst, reference bool) []string {
	t.Helper()
	if reference {
		var out []string
		homo.ReferenceForEachSeeded(g.KB.Facts, body, seed, func(m homo.Match) bool {
			out = append(out, m.Subst.Key()+fmt.Sprint(m.Facts))
			return true
		})
		sort.Strings(out)
		return out
	}
	return collectWith(t, body, g, seed, homo.CompileOpts{})
}

func collectWith(t *testing.T, body []logic.Atom, g *synth.Generated, seed logic.Subst, opts homo.CompileOpts) []string {
	t.Helper()
	var out []string
	homo.CompileWith(body, opts).ForEachSeeded(g.KB.Facts, seed, func(m homo.Match) bool {
		out = append(out, m.Subst.Key()+fmt.Sprint(m.Facts))
		return true
	})
	sort.Strings(out)
	return out
}

func firstBinding(t *testing.T, body []logic.Atom, g *synth.Generated) logic.Subst {
	t.Helper()
	seed := logic.NewSubst()
	homo.ReferenceForEachSeeded(g.KB.Facts, body, nil, func(m homo.Match) bool {
		// Pick the lexicographically smallest variable so the seed is
		// reproducible (map iteration order is randomized).
		var best logic.Term
		for v := range m.Subst {
			if best.Name == "" || v.Name < best.Name {
				best = v
			}
		}
		if best.Name != "" {
			seed[best] = m.Subst[best]
		}
		return false
	})
	return seed
}
