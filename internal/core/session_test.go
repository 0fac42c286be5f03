// Differential test of the Π-checker's session instances. External test
// package: it drives real inquiry sessions over synth and Durum Wheat KBs,
// and both depend on core.
package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"kbrepair/internal/conflict"
	"kbrepair/internal/core"
	"kbrepair/internal/durum"
	"kbrepair/internal/inquiry"
	"kbrepair/internal/logic"
	"kbrepair/internal/par"
	"kbrepair/internal/store"
	"kbrepair/internal/synth"
)

// sessionCase is one KB of the differential table; a session stops after
// verify cross-checked questions (the reference check rebuilds and chases a
// full copy per fix).
type sessionCase struct {
	name   string
	kb     *core.KB
	verify int
}

func sessionCases(t *testing.T) []sessionCase {
	t.Helper()
	var out []sessionCase
	for _, p := range []synth.Params{
		{Seed: 1, NumFacts: 60, InconsistencyRatio: 0.3, NumCDDs: 6, JoinVarRatio: 0.5},
		{Seed: 2, NumFacts: 120, InconsistencyRatio: 0.25, NumCDDs: 8, NumTGDs: 4, JoinVarRatio: 0.3},
		{Seed: 4, NumFacts: 80, InconsistencyRatio: 0.4, NumCDDs: 12, NumTGDs: 2, JoinVarRatio: 0.2},
	} {
		g, err := synth.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sessionCase{fmt.Sprintf("synth%d", p.Seed), g.KB, 12})
	}
	// A KB whose input already holds position-shaped null labels at
	// conflicting positions: answers overwrite them, so NullForPos's escapes
	// drift during the session.
	g, err := synth.Generate(synth.Params{Seed: 6, NumFacts: 90, InconsistencyRatio: 0.4, NumCDDs: 8, JoinVarRatio: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	hostile := g.KB
	var hot []core.Position
	for _, c := range conflict.AllNaive(hostile.Facts, hostile.Rules) {
		hot = append(hot, c.Positions(hostile.Facts)...)
	}
	r := rand.New(rand.NewSource(6))
	for i := 0; i < len(hot)/4; i++ {
		p, q := hot[r.Intn(len(hot))], hot[r.Intn(len(hot))]
		label := fmt.Sprintf("f%da%d", q.Fact, q.Arg)
		if r.Intn(3) == 0 {
			label += "c1"
		}
		hostile.Facts.MustSetValue(p, logic.N(label))
	}
	out = append(out, sessionCase{"hostile-labels", hostile, 30})
	dw, _, err := durum.Build(durum.V2)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, sessionCase{"durum", dw, 3})
	return out
}

// errStop ends a shadowed session once its questions have been checked.
var errStop = errors.New("enough questions checked")

// TestSessionInstancesMatchAlgorithm1 runs inquiry sessions (opti-prop,
// random and opti-mcd) at one and four workers, with a long-lived PiChecker
// shadowing the engine's Π. At every question it checks the fixes of the
// question's conflict: each verdict must equal Algorithm 1 on a fresh copy
// with the fix applied and Π ∪ {f.Pos}, and every instance synced by that
// batch must equal nulledCopy(F, Π) up to null renaming. The table's TGD
// KBs (synth2, durum) decide by continuation from a saturated instance.
// One more Durum Wheat session, under opti-prop with seed 1, pins
// positions without verifying them until the instance I itself is
// violated, so every fix outside Π must be rejected; it alone breaks the
// fast path's premise (see fastPathExempt). Π shrinking
// (opti-prop's release) is covered by TestSessionInstancesRandomWalk.
func TestSessionInstancesMatchAlgorithm1(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	var total shadowCounts
	for _, c := range sessionCases(t) {
		for _, strat := range []inquiry.Strategy{inquiry.OptiProp{}, inquiry.Random{}, inquiry.OptiMCD{}} {
			for _, w := range []int{1, 4} {
				par.SetWorkers(w)
				total.add(shadowSession(t, fmt.Sprintf("%s/%s/w%d", c.name, strat.Name(), w), c.kb, strat, 11, c.verify, false))
			}
		}
	}
	if total.full == 0 || total.synced == 0 || total.continued == 0 {
		t.Fatalf("table too weak: %+v", total)
	}
	dw, _, err := durum.Build(durum.V2)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4} {
		par.SetWorkers(w)
		got := shadowSession(t, fmt.Sprintf("durum-violated/w%d", w), dw, inquiry.OptiProp{}, 1, 7, true)
		if got.violated == 0 {
			t.Fatalf("durum-violated/w%d: no batch checked a violated instance: %+v", w, got)
		}
	}
}

// shadowCounts tallies what shadowed batches exercised: full checks, those
// decided by continuation, batches whose saturated instance was violated,
// and synced instances compared.
type shadowCounts struct{ full, continued, violated, synced int }

func (c *shadowCounts) add(o shadowCounts) {
	c.full += o.full
	c.continued += o.continued
	c.violated += o.violated
	c.synced += o.synced
}

// shadowSession runs one inquiry session on a clone of kb with a
// long-lived PiChecker shadowing the engine's Π, cross-checking the
// question's fixes with checkFixes at each of the first verify questions;
// exempt is passed on to checkFixes.
func shadowSession(t *testing.T, name string, kb *core.KB, strat inquiry.Strategy, seed int64, verify int, exempt bool) shadowCounts {
	t.Helper()
	kb = kb.Clone()
	pc := core.NewPiChecker(kb)
	sim := inquiry.NewSimulatedUser(seed)
	var e *inquiry.Engine
	var got shadowCounts
	asked := 0
	user := inquiry.FuncUser(func(kb *core.KB, q inquiry.Question) (core.Fix, error) {
		if asked == verify {
			return core.Fix{}, errStop
		}
		f, s := checkFixes(t, fmt.Sprintf("%s q%d", name, asked), pc, kb, e.Pi, q.Conflict.Positions(kb.Facts), exempt)
		got.full += f
		got.synced += s
		if pc.Continues() {
			got.continued += f
			if f > 0 && pc.SaturationViolated() {
				got.violated++
			}
		}
		asked++
		return sim.Choose(kb, q)
	})
	e = inquiry.New(kb, strat, user, seed, inquiry.Options{})
	if _, err := e.Run(); err != nil && !errors.Is(err, errStop) {
		t.Fatalf("%s: %v", name, err)
	}
	return got
}

// TestSessionInstancesRandomWalk drives one long-lived PiChecker through a
// random walk of Π on the synth and hostile-label KBs, at one and four
// workers: answers (a fix applied to F, its position joining Π) and pins
// that are later released all at once (opti-prop's propagation and
// release, so Π shrinks and positions return to nulls). Every step keeps K
// Π-repairable, the loop invariant the fast path presumes, and ends with
// one batch cross-checked as in the session test. Durum Wheat walks fewer
// steps: its reference checks chase a full copy per fix.
func TestSessionInstancesRandomWalk(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	var full, shrinks, synced, continued int
	for _, c := range sessionCases(t) {
		steps := 40
		if c.name == "durum" {
			steps = 8
		}
		for _, w := range []int{1, 4} {
			par.SetWorkers(w)
			name := fmt.Sprintf("%s/w%d", c.name, w)
			kb := c.kb.Clone()
			pc := core.NewPiChecker(kb)
			r := rand.New(rand.NewSource(int64(len(name))))
			var hot []core.Position
			for _, x := range conflict.AllNaive(kb.Facts, kb.Rules) {
				hot = append(hot, x.Positions(kb.Facts)...)
			}
			pi, pinned := core.NewPi(), core.NewPi()
			repairable := func(pi core.Pi) bool {
				ok, err := core.PiRepairable(kb, pi)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return ok
			}
			for step := 0; step < steps; step++ {
				p := hot[r.Intn(len(hot))]
				switch op := r.Intn(5); {
				case op < 2 && !pi.Has(p): // answer
					vals := core.FixValues(kb, p)
					v := vals[r.Intn(len(vals))]
					prev := kb.Facts.MustSetValue(p, v)
					if !repairable(pi.With(p)) {
						kb.Facts.MustSetValue(p, prev)
						kb.Facts.MustSetValue(p, kb.Facts.NullForPos(p)) // sound by Lemma 4.3
					}
					pi.Add(p)
					delete(pinned, p)
				case op < 4 && !pi.Has(p): // pin
					if repairable(pi.With(p)) {
						pi.Add(p)
						pinned.Add(p)
					}
				case op == 4 && len(pinned) > 0: // release every pin
					for q := range pinned {
						delete(pi, q)
					}
					pinned = core.NewPi()
					shrinks++
				}
				var ps []core.Position
				for i := 0; i < 4; i++ {
					ps = append(ps, hot[r.Intn(len(hot))])
				}
				f, sy := checkFixes(t, fmt.Sprintf("%s step %d", name, step), pc, kb, pi, ps, false)
				full += f
				synced += sy
				if pc.Continues() {
					continued += f
				}
			}
		}
	}
	if full == 0 || shrinks == 0 || synced == 0 || continued == 0 {
		t.Fatalf("walk too weak: %d full checks (%d by continuation), %d releases, %d synced instances compared",
			full, continued, shrinks, synced)
	}
}

// checkFixes runs one CheckBatch over fixes of the given positions outside
// Π and compares it with Algorithm 1 and the synced instances with
// nulledCopy — their first Len(F) facts, since a saturation follows them.
// It returns the batch's full checks and instances compared.
// Per position the batch holds every candidate value that can complete a
// join — one sitting at a Π position or occurring in a rule — plus the
// first three others and the fresh null, which keeps the reference checks
// affordable on KBs with wide active domains. Every verdict must equal
// Algorithm 1's; with exempt, a session that breaks the fast path's
// premise may also get the verdicts fastPathExempt accepts.
func checkFixes(t *testing.T, name string, pc *core.PiChecker, kb *core.KB, pi core.Pi, positions []core.Position, exempt bool) (full, synced int) {
	t.Helper()
	joining := make(map[logic.Term]bool)
	for p := range pi {
		joining[kb.Facts.Value(p)] = true
	}
	var ruleAtoms []logic.Atom
	for _, r := range kb.TGDs {
		ruleAtoms = append(append(ruleAtoms, r.Body...), r.Head...)
	}
	for _, c := range kb.CDDs {
		ruleAtoms = append(ruleAtoms, c.Body...)
	}
	for _, a := range ruleAtoms {
		for _, v := range a.Args {
			if v.IsConst() {
				joining[v] = true
			}
		}
	}
	var fixes []core.Fix
	for _, p := range positions {
		if pi.Has(p) {
			continue
		}
		vals := core.FixValues(kb, p)
		for i, v := range vals {
			if joining[v] || i < 3 || i == len(vals)-1 {
				fixes = append(fixes, core.Fix{Pos: p, Value: v})
			}
		}
	}
	before := pc.FullChecks
	got, err := pc.CheckBatch(pi, fixes)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	full = pc.FullChecks - before
	for i, f := range fixes {
		// Algorithm 1 on apply(F, {f}): PiRepairable builds its own fresh
		// nulled copy; the fix is undone before the engine resumes.
		prev := kb.Facts.MustSetValue(f.Pos, f.Value)
		want, err := core.PiRepairable(kb, pi.With(f.Pos))
		kb.Facts.MustSetValue(f.Pos, prev)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got[i] != want && !(exempt && fastPathExempt(t, pc, kb, pi, f, got[i])) {
			t.Fatalf("%s: fix %s = %v: verdict %v, Algorithm 1 says %v", name, f.Pos, f.Value, got[i], want)
		}
	}
	ref := core.NulledCopy(kb.Facts, pi)
	for _, s := range pc.SyncedInstances(pi) {
		synced++
		if s.Len() > kb.Facts.Len() {
			nulled := store.New()
			for id := range store.FactID(kb.Facts.Len()) {
				nulled.MustAdd(s.Fact(id))
			}
			s = nulled
		}
		if !s.EqualUpToNullRenaming(ref) {
			t.Fatalf("%s: session instance differs from nulledCopy(F, Π) beyond null renaming:\n%s\nwant\n%s",
				name, s, ref)
		}
	}
	return full, synced
}

// fastPathExempt reports whether a verdict that disagrees with Algorithm 1
// came from the fast path while K is not Π-repairable. The fast path
// presumes that loop invariant of Algorithm 2, which opti-prop breaks by
// pinning positions without verifying them; full checks must still agree.
// The fix is re-checked alone to see which path decided it.
func fastPathExempt(t *testing.T, pc *core.PiChecker, kb *core.KB, pi core.Pi, f core.Fix, got bool) bool {
	t.Helper()
	if ok, err := core.PiRepairable(kb, pi); err != nil || ok {
		return false
	}
	before := pc.FullChecks
	ok, err := pc.CheckWithFix(pi, f)
	return err == nil && ok == got && pc.FullChecks == before
}
