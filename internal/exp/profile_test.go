package exp

import (
	"bytes"
	"encoding/json"
	"testing"

	"kbrepair/internal/inquiry"
	"kbrepair/internal/obs"
	"kbrepair/internal/obs/attr"
	"kbrepair/internal/par"
	"kbrepair/internal/synth"
)

// profileWorkload runs one small fixed workload — fresh KB and rules each
// call, so its rule set compiles anew and the counters cover the whole
// run — and returns the resulting profile.
func profileWorkload(t *testing.T) *Profile {
	t.Helper()
	attr.Reset()
	obs.Default().Reset()
	g, err := synth.Generate(synth.Params{
		Seed: 7, NumFacts: 300, InconsistencyRatio: 0.10, NumCDDs: 10,
		JoinVarRatio: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunStrategies(g.KB, 1, 7, inquiry.Options{}); err != nil {
		t.Fatal(err)
	}
	p := BuildProfile(attr.Capture(), obs.Default().Snapshot())
	if p == nil {
		t.Fatal("BuildProfile returned nil with attribution enabled")
	}
	return p
}

// TestProfileDeterministicAcrossWorkers is the profile's core guarantee:
// with attribution on and obs timing off, the marshaled profile section is
// byte-identical at -workers 1, 2 and 8. Node and probe counts are exact,
// interning is content-addressed, snapshots sort by key, and the KB's
// rule set compiles each plan exactly once — nothing scheduling-dependent
// is left.
func TestProfileDeterministicAcrossWorkers(t *testing.T) {
	prevAttr := attr.Enabled()
	attr.SetEnabled(true)
	obs.SetEnabled(false) // timing off: Seconds/TimeShare must be exactly 0
	t.Cleanup(func() {
		attr.SetEnabled(prevAttr)
		par.SetWorkers(0)
		attr.Reset()
		obs.Default().Reset()
	})

	var baseline []byte
	for _, w := range []int{1, 2, 8} {
		par.SetWorkers(w)
		p := profileWorkload(t)
		if p.Bodies == 0 || len(p.Rows) == 0 {
			t.Fatalf("workers=%d: empty profile (bodies=%d)", w, p.Bodies)
		}
		for _, r := range p.Rows {
			if r.Seconds != 0 || r.TimeShare != 0 {
				t.Fatalf("workers=%d: timing leaked into profile row %q with obs timing off", w, r.Body)
			}
		}
		got, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if baseline == nil {
			baseline = got
			continue
		}
		if !bytes.Equal(baseline, got) {
			t.Fatalf("profile differs between -workers 1 and -workers %d:\n%s\nvs\n%s", w, baseline, got)
		}
	}
}

// TestBuildProfileNilSnapshot: attribution off means no profile section.
func TestBuildProfileNilSnapshot(t *testing.T) {
	if p := BuildProfile(nil, obs.Snapshot{}); p != nil {
		t.Fatal("nil snapshot must yield nil profile")
	}
}

// TestCompareBenchReportsTreeGate is the acceptance check for tree-size
// gating: perturb a baseline profile so one body's backtrack-node total is
// half the new run's (a synthetic 2× growth) and the comparison must flag
// it as a tree regression; bodies under the noise floor must not fire.
func TestCompareBenchReportsTreeGate(t *testing.T) {
	mk := func(nodes, tiny int64) BenchReport {
		r := NewBenchReport("gate", obs.Snapshot{})
		r.Profile = &Profile{
			Bodies: 2,
			Rows: []attr.Row{
				{Body: "p(X), q(X)", Searches: 10, Nodes: nodes},
				{Body: "tiny(X)", Searches: 1, Nodes: tiny},
			},
		}
		return r
	}
	old := mk(50_000, 10)
	new := mk(100_000, 400) // big body 2x, tiny body 40x but under the floor

	regs := CompareBenchReports(old, new, 1.25)
	if len(regs) != 1 {
		t.Fatalf("got %d regressions, want 1: %v", len(regs), regs)
	}
	r := regs[0]
	if r.Kind != RegressionTree || r.Metric != "tree:p(X), q(X)" {
		t.Fatalf("unexpected regression %+v", r)
	}
	if r.Ratio < 1.9 || r.Ratio > 2.1 {
		t.Fatalf("ratio = %v, want ~2", r.Ratio)
	}

	// Within threshold: no regression.
	if regs := CompareBenchReports(old, mk(55_000, 10), 1.25); len(regs) != 0 {
		t.Fatalf("within-threshold growth flagged: %v", regs)
	}
	// Baseline without a profile (e.g. older run re-written at v2): skip.
	noProf := mk(50_000, 10)
	noProf.Profile = nil
	if regs := CompareBenchReports(noProf, new, 1.25); len(regs) != 0 {
		t.Fatalf("profile-less baseline produced tree regressions: %v", regs)
	}
}
