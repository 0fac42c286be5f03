// Differential equivalence suite for the chase engine behind Run: over the
// synthetic KB table it must produce byte-identical transcripts at every
// worker count, and must match the retained sequential reference engine
// fact-for-fact modulo a bijective renaming of invented nulls. External test package because synth depends
// on chase.
package chase_test

import (
	"fmt"
	"reflect"
	"regexp"
	"testing"

	"kbrepair/internal/chase"
	"kbrepair/internal/logic"
	"kbrepair/internal/par"
	"kbrepair/internal/store"
	"kbrepair/internal/synth"
)

// synthCases is the same spread the homo differential suite uses: sizes,
// inconsistency ratios and join shapes varied enough to exercise multi-round
// chases, multi-atom CDD bodies and null-inventing TGDs.
var synthCases = []synth.Params{
	{Seed: 1, NumFacts: 40, InconsistencyRatio: 0.2, NumCDDs: 5},
	{Seed: 2, NumFacts: 120, InconsistencyRatio: 0.25, NumCDDs: 8, NumTGDs: 4, JoinVarRatio: 0.3},
	{Seed: 3, NumFacts: 300, InconsistencyRatio: 0.1, NumCDDs: 10, NumTGDs: 6, JoinVarRatio: 0.5},
	{Seed: 4, NumFacts: 80, InconsistencyRatio: 0.4, NumCDDs: 12, NumTGDs: 2, JoinVarRatio: 0.2},
}

// synthKB generates one table case and returns its store plus the chase
// rule list — the KB's TGDs followed by its CDDs' ⊥-rules, so the chase
// also exercises zero-arity heads — and that list compiled against the
// store.
func synthKB(t *testing.T, p synth.Params) (*store.Store, []*logic.TGD, *chase.Rules) {
	t.Helper()
	g, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	rules := append([]*logic.TGD(nil), g.KB.TGDs...)
	for _, c := range g.KB.Rules.CDD {
		rules = append(rules, c.Bottom)
	}
	return g.KB.Facts, rules, chase.NewRules(rules, nil, g.KB.Facts)
}

// transcript canonicalizes a chase result byte-for-byte: round count, every
// fact in id order (null labels included), and every derivation edge.
func transcript(res *chase.Result) string {
	out := fmt.Sprintf("rounds=%d\n%s", res.Rounds, res.Store.String())
	for _, id := range res.Derived() {
		d := res.Prov[id]
		out += fmt.Sprintf("%d<=%s%v@%d\n", id, d.Rule.Label, d.Parents, d.HeadIdx)
	}
	return out
}

func setWorkers(t *testing.T, n int) {
	t.Helper()
	par.SetWorkers(n)
	t.Cleanup(func() { par.SetWorkers(0) })
}

// TestChaseEquivalenceAcrossWorkersSynth chases every synthetic table case
// at workers 1, 2 and 8 and requires byte-identical transcripts: same facts
// at the same ids with the same null labels, same provenance, same rounds.
func TestChaseEquivalenceAcrossWorkersSynth(t *testing.T) {
	for _, p := range synthCases {
		t.Run(fmt.Sprintf("seed%d", p.Seed), func(t *testing.T) {
			setWorkers(t, 1)
			s, _, rs := synthKB(t, p)
			base, err := chase.Run(s, rs, chase.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := transcript(base)
			for _, w := range []int{2, 8} {
				par.SetWorkers(w)
				res, err := chase.Run(s, rs, chase.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if got := transcript(res); got != want {
					t.Errorf("workers=%d: transcript differs from workers=1\n--- workers=1\n%s\n--- workers=%d\n%s", w, want, w, got)
				}
			}
		})
	}
}

// TestChaseMatchesSequentialReference is the isomorphism differential: Run's
// output must equal the retained reference engine's output fact-for-fact at the same ids — identical rounds, provenance and
// derivation order — with invented nulls related by a bijective renaming
// (the engines name nulls differently by design: coordinate labels vs the
// global counter).
func TestChaseMatchesSequentialReference(t *testing.T) {
	setWorkers(t, 8)
	for _, p := range synthCases {
		t.Run(fmt.Sprintf("seed%d", p.Seed), func(t *testing.T) {
			s, rules, rs := synthKB(t, p)
			res, err := chase.Run(s, rs, chase.Options{})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := chase.RunSequentialReference(s, rules, chase.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Rounds != ref.Rounds || res.BaseLen != ref.BaseLen {
				t.Fatalf("rounds/base = %d/%d, reference %d/%d", res.Rounds, res.BaseLen, ref.Rounds, ref.BaseLen)
			}
			if len(res.Prov) != len(ref.Prov) {
				t.Fatalf("derived %d facts, reference %d", len(res.Prov), len(ref.Prov))
			}
			if !res.Store.EqualUpToNullRenaming(ref.Store) {
				t.Fatalf("stores not isomorphic modulo null renaming\n--- parallel\n%s\n--- reference\n%s", res.Store, ref.Store)
			}
			// Null labels aside, provenance must agree id-for-id: same rule,
			// same parents, same head index.
			for id, d := range res.Prov {
				rd, ok := ref.Prov[id]
				if !ok {
					t.Fatalf("fact %d has no reference derivation", id)
				}
				if d.Rule != rd.Rule || d.HeadIdx != rd.HeadIdx || !reflect.DeepEqual(d.Parents, rd.Parents) {
					t.Fatalf("fact %d derivation %v@%d from %v, reference %v@%d from %v",
						id, d.Rule, d.HeadIdx, d.Parents, rd.Rule, rd.HeadIdx, rd.Parents)
				}
			}
		})
	}
}

// TestChaseNullCoordinateLabels pins the invented-null naming scheme: a
// fired existential gets the label n<round>r<rule>t<trigger>x<var>, derived
// purely from the firing coordinate.
func TestChaseNullCoordinateLabels(t *testing.T) {
	s := store.MustFromAtoms([]logic.Atom{
		logic.NewAtom("p", logic.C("a")),
		logic.NewAtom("p", logic.C("b")),
	})
	rule := logic.MustTGD(
		[]logic.Atom{logic.NewAtom("p", logic.V("X"))},
		[]logic.Atom{logic.NewAtom("q", logic.V("X"), logic.V("Z"))})
	res, err := chase.Run(s, chase.NewRules([]*logic.TGD{rule}, nil, s), chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	coord := regexp.MustCompile(`^n\d+r\d+t\d+x\d+$`)
	derived := res.Derived()
	if len(derived) != 2 {
		t.Fatalf("derived %d facts, want 2", len(derived))
	}
	wantLabels := []string{"n1r0t0x0", "n1r0t1x0"}
	for i, id := range derived {
		null := res.Store.FactRef(id).Args[1]
		if !null.IsNull() {
			t.Fatalf("fact %d arg = %v, want a null", id, null)
		}
		if !coord.MatchString(null.Name) {
			t.Errorf("null label %q does not match the coordinate scheme", null.Name)
		}
		if null.Name != wantLabels[i] {
			t.Errorf("fact %d null = %q, want %q", id, null.Name, wantLabels[i])
		}
	}
}
