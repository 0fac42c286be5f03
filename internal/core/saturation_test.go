// Differential test of the Π-checker's maintained saturation. External
// test package, like session_test.go, whose KB table and checkFixes it
// shares.
package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"kbrepair/internal/chase"
	"kbrepair/internal/conflict"
	"kbrepair/internal/core"
	"kbrepair/internal/homo"
	"kbrepair/internal/inquiry"
	"kbrepair/internal/logic"
	"kbrepair/internal/par"
	"kbrepair/internal/store"
	"kbrepair/internal/synth"
)

// hostileTGDCase is a synth KB with TGDs whose conflicting positions hold
// null labels of both shapes the store names: position-shaped ones, whose
// NullForPos escapes drift as answers overwrite them, and
// coordinate-shaped ones, which the saturation invents too, so answering
// or pinning such a position makes the checker drop its saturation.
func hostileTGDCase(t *testing.T) sessionCase {
	t.Helper()
	g, err := synth.Generate(synth.Params{Seed: 5, NumFacts: 90, InconsistencyRatio: 0.35, NumCDDs: 8, NumTGDs: 4, JoinVarRatio: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	kb := g.KB
	var hot []core.Position
	for _, c := range conflict.AllNaive(kb.Facts, kb.Rules) {
		hot = append(hot, c.Positions(kb.Facts)...)
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < len(hot)/4; i++ {
		p, q := hot[r.Intn(len(hot))], hot[r.Intn(len(hot))]
		label := fmt.Sprintf("f%da%d", q.Fact, q.Arg)
		if r.Intn(2) == 0 {
			label = fmt.Sprintf("n%dr%dt%dx0", 1+r.Intn(2), r.Intn(4), r.Intn(3))
		}
		kb.Facts.MustSetValue(p, logic.N(label))
	}
	return sessionCase{"hostile-tgd", kb, 0}
}

// TestMaintainedSaturationMatchesFresh drives one long-lived PiChecker
// through random walks of answers, pins and releases (as
// TestSessionInstancesRandomWalk does) on the session KBs — synth with
// and without TGDs, the hostile-label KBs and Durum Wheat — at one and
// four workers. Every step ends with a batch cross-checked against
// Algorithm 1 (checkFixes); after every batch that synced the instance,
// its saturation must agree with a fresh Saturate of nulledCopy(F, Π): the
// same violated flag, and when clean, each must map homomorphically into
// the other with nulls read as variables, and no derived fact may hold a
// null that is neither a term of I nor invented. Walks also pin the
// positions of a conflict unverified, one a step — one that needs a TGD
// where there is one, so the violation may appear only on a rewritten
// derived fact — and violated saturations are compared too. On the KBs with a
// relevant TGD and no hostile labels a batch may chase from fact 0 only on
// first use and after a release. Both the kept and the from-scratch
// saturations must occur.
func TestMaintainedSaturationMatchesFresh(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	var compared, clean, maintained, scratch int
	for _, c := range append(sessionCases(t), hostileTGDCase(t)) {
		steps := 30
		if c.name == "durum" {
			steps = 6
		}
		for _, w := range []int{1, 4} {
			par.SetWorkers(w)
			name := fmt.Sprintf("%s/w%d", c.name, w)
			kb := c.kb.Clone()
			pc := core.NewPiChecker(kb)
			chk := chase.NewChecker(kb.Rules)
			strict := chk.HasTGDs() && c.name != "hostile-tgd"
			r := rand.New(rand.NewSource(int64(len(name)) + 7))
			// Chase-level conflicts: their base positions include those of
			// facts whose violation needs a TGD.
			cs, _, err := conflict.All(kb.Facts, kb.Rules, kb.ChaseOpts)
			if err != nil {
				t.Fatal(err)
			}
			var hot []core.Position
			var conflicts [][]core.Position // non-direct ones when there are any
			for _, x := range cs {
				hot = append(hot, x.Positions(kb.Facts)...)
				if !x.Direct {
					conflicts = append(conflicts, x.Positions(kb.Facts))
				}
			}
			if len(conflicts) == 0 {
				for _, x := range cs {
					conflicts = append(conflicts, x.Positions(kb.Facts))
				}
			}
			repairable := func(pi core.Pi) bool {
				ok, err := core.PiRepairable(kb, pi)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return ok
			}
			pi, pinned := core.NewPi(), core.NewPi()
			synced, released := false, false
			var queue []core.Position // a conflict's positions, pinned one a step
			for step := 0; step < steps; step++ {
				p := hot[r.Intn(len(hot))]
				switch op := r.Intn(6); {
				case len(queue) > 0:
					if q := queue[0]; !pi.Has(q) {
						pi.Add(q)
						pinned.Add(q)
					}
					queue = queue[1:]
				case op < 2 && !pi.Has(p): // answer
					vals := core.FixValues(kb, p)
					prev := kb.Facts.MustSetValue(p, vals[r.Intn(len(vals))])
					if !repairable(pi.With(p)) {
						kb.Facts.MustSetValue(p, prev)
						kb.Facts.MustSetValue(p, kb.Facts.NullForPos(p))
					}
					pi.Add(p)
					delete(pinned, p)
				case op < 4 && !pi.Has(p): // pin, verified but one time in four
					if r.Intn(4) == 0 || repairable(pi.With(p)) {
						pi.Add(p)
						pinned.Add(p)
					}
				case op == 4 && len(pinned) > 0: // release every pin
					for q := range pinned {
						delete(pi, q)
					}
					pinned = core.NewPi()
					released = true
				case op == 5: // pin a whole conflict unverified, which may violate I
					queue = slices.Clone(conflicts[r.Intn(len(conflicts))])
					r.Shuffle(len(queue), func(i, j int) { queue[i], queue[j] = queue[j], queue[i] })
				}
				var ps []core.Position
				for i := 0; i < 3; i++ {
					ps = append(ps, hot[r.Intn(len(hot))])
				}
				m0, s0 := pc.Saturations()
				full, _ := checkFixes(t, fmt.Sprintf("%s step %d", name, step), pc, kb, pi, ps, true)
				m1, s1 := pc.Saturations()
				maintained += m1 - m0
				scratch += s1 - s0
				if full == 0 {
					continue
				}
				if strict && s1 > s0 && synced && !released {
					t.Fatalf("%s step %d: chased from fact 0 without a release", name, step)
				}
				synced, released = true, false
				s, n, saturated, violated := pc.Saturation()
				if !saturated {
					t.Fatalf("%s step %d: the instance is not saturated after a batch with full checks", name, step)
				}
				base := make(map[logic.Term]bool)
				for id := range store.FactID(n) {
					for _, x := range s.FactRef(id).Args {
						base[x] = true
					}
				}
				fresh := core.NulledCopy(kb.Facts, pi)
				ok, err := chk.Saturate(fresh, kb.ChaseOpts)
				if err != nil {
					t.Fatalf("%s step %d: %v", name, step, err)
				}
				if violated == ok {
					t.Fatalf("%s step %d: kept saturation violated=%v, fresh saturation violated=%v", name, step, violated, !ok)
				}
				compared++
				// The rewrite leaves no answered null behind: a null of a
				// derived fact that the chase did not invent (labels n…)
				// is a term of I.
				for id := store.FactID(n); int(id) < s.Len(); id++ {
					for _, x := range s.FactRef(id).Args {
						if x.IsNull() && !strings.HasPrefix(x.Name, "n") && !base[x] {
							t.Fatalf("%s step %d: derived fact %s holds %s, which is not in I", name, step, s.FactRef(id), x)
						}
					}
				}
				if ok {
					clean++
					if !mapsInto(s, fresh) || !mapsInto(fresh, s) {
						t.Fatalf("%s step %d: kept saturation (%d base facts of %d) is not homomorphically equivalent to the fresh one:\n%s\nfresh\n%s",
							name, step, n, s.Len(), s, fresh)
					}
				}
			}
		}
	}
	if clean == 0 || clean == compared || maintained == 0 || scratch == 0 {
		t.Fatalf("walk too weak: %d saturations compared (%d clean), %d kept, %d from fact 0",
			compared, clean, maintained, scratch)
	}
}

// mapsInto reports whether a homomorphism maps the facts of a into b with
// the nulls of a read as variables. Facts linked by shared nulls form one
// conjunctive query, searched in b with homo; a fact without nulls must
// be in b.
func mapsInto(a, b *store.Store) bool {
	// Union-find over a's facts, joined through the first fact of each null.
	parent := make([]int, a.Len())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}
	first := make(map[logic.Term]int)
	for id := range store.FactID(a.Len()) {
		for _, t := range a.FactRef(id).Args {
			if !t.IsNull() {
				continue
			}
			if j, ok := first[t]; ok {
				parent[find(int(id))] = find(j)
			} else {
				first[t] = int(id)
			}
		}
	}
	groups := make(map[int][]logic.Atom)
	var roots []int
	for id := range store.FactID(a.Len()) {
		f := a.Fact(id)
		ground := true
		for i, t := range f.Args {
			if t.IsNull() {
				f.Args[i] = logic.V("N_" + t.Name)
				ground = false
			}
		}
		if ground {
			if !b.Contains(f) {
				return false
			}
			continue
		}
		root := find(int(id))
		if _, ok := groups[root]; !ok {
			roots = append(roots, root)
		}
		groups[root] = append(groups[root], f)
	}
	for _, root := range roots {
		if !homo.CompileWith(groups[root], homo.CompileOpts{Stats: b}).Exists(b) {
			return false
		}
	}
	return true
}

// TestSessionSaturatesFromScratchOnlyOnRelease shadows inquiry sessions on
// the synth KBs with TGDs (opti-prop, which pins and releases, and
// opti-mcd) with a PiChecker that checks every question's fixes under the
// engine's Π: a batch may chase its instance from fact 0 only on first use
// or when Π lost a position since the batch before, and the kept
// saturations must outnumber those.
func TestSessionSaturatesFromScratchOnlyOnRelease(t *testing.T) {
	var maintained, scratch int
	for _, c := range sessionCases(t) {
		if len(c.kb.TGDs) == 0 || c.name == "durum" {
			continue
		}
		for _, strat := range []inquiry.Strategy{inquiry.OptiProp{}, inquiry.OptiMCD{}} {
			name := c.name + "/" + strat.Name()
			kb := c.kb.Clone()
			pc := core.NewPiChecker(kb)
			sim := inquiry.NewSimulatedUser(3)
			var e *inquiry.Engine
			var last core.Pi
			user := inquiry.FuncUser(func(kb *core.KB, q inquiry.Question) (core.Fix, error) {
				var fixes []core.Fix
				for _, p := range q.Conflict.Positions(kb.Facts) {
					if !e.Pi.Has(p) {
						for _, v := range core.FixValues(kb, p) {
							fixes = append(fixes, core.Fix{Pos: p, Value: v})
						}
					}
				}
				_, s0 := pc.Saturations()
				before := pc.FullChecks
				if _, err := pc.CheckBatch(e.Pi, fixes); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if pc.FullChecks > before {
					_, s1 := pc.Saturations()
					released := false
					for p := range last {
						released = released || !e.Pi.Has(p)
					}
					if s1 > s0 && last != nil && !released {
						t.Fatalf("%s: a batch chased its instance from fact 0 without a release", name)
					}
					last = e.Pi.Clone()
				}
				return sim.Choose(kb, q)
			})
			e = inquiry.New(kb, strat, user, 3, inquiry.Options{})
			if _, err := e.Run(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			m, s := pc.Saturations()
			maintained += m
			scratch += s
		}
	}
	if scratch == 0 || maintained <= scratch {
		t.Fatalf("sessions too weak: %d saturations kept, %d from fact 0", maintained, scratch)
	}
}
