package inquiry

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kbrepair/internal/core"
	"kbrepair/internal/par"
	"kbrepair/internal/synth"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden session transcripts under testdata/")

// goldenKBs are the workloads of the committed session transcripts: a small
// synth KB with TGDs (both phases) and a CDD-only one (phase one only).
var goldenKBs = []struct {
	name   string
	params synth.Params
}{
	{"tgd", synth.Params{Seed: 9, NumFacts: 120, InconsistencyRatio: 0.25, NumCDDs: 8, NumTGDs: 4, JoinVarRatio: 0.3}},
	{"cdd", synth.Params{Seed: 4, NumFacts: 160, InconsistencyRatio: 0.4, NumCDDs: 10}},
}

// goldenStrategies names the strategies whose sessions are pinned: the two
// that rank hypergraph degrees and the baseline.
var goldenStrategies = []string{"opti-mcd", "adaptive", "random"}

func goldenStrategy(t *testing.T, name string) Strategy {
	t.Helper()
	if name == "adaptive" {
		return NewAdaptiveStrategy()
	}
	s, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sessionTranscript repairs a fresh copy of the KB with the simulated user
// seeded by seed (the kbrepair -auto set-up) under opts and renders every question
// (phase and offered fixes) and every answer, then the session's totals and
// applied fixes.
func sessionTranscript(t *testing.T, params synth.Params, strat string, seed int64, opts Options) string {
	t.Helper()
	g, err := synth.Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	kb := g.KB
	var sb strings.Builder
	sim := NewSimulatedUser(seed)
	n, conflicts := 0, 0
	user := FuncUser(func(kb *core.KB, q Question) (core.Fix, error) {
		n++
		fmt.Fprintf(&sb, "q%d phase=%d\n", n, q.Phase)
		// One line per offered position: its fact, argument and values.
		for i, f := range q.Fixes {
			if i == 0 || f.Pos != q.Fixes[i-1].Pos {
				if i > 0 {
					sb.WriteByte('\n')
				}
				fmt.Fprintf(&sb, "  %s #%d:", kb.Facts.FactRef(f.Pos.Fact), f.Pos.Arg+1)
			}
			fmt.Fprintf(&sb, " %s", f.Value)
		}
		sb.WriteByte('\n')
		f, err := sim.Choose(kb, q)
		if err == nil {
			fmt.Fprintf(&sb, "  -> %s\n", f.Describe(kb.Facts))
		}
		return f, err
	})
	res, err := New(kb, goldenStrategy(t, strat), user, seed, opts).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Fatal("repair did not converge")
	}
	for _, rd := range res.Rounds {
		conflicts += rd.ConflictsBefore
	}
	fmt.Fprintf(&sb, "questions=%d naive=%d total=%d conflicts-seen=%d\n",
		res.Questions, res.InitialNaive, res.InitialTotal, conflicts)
	fmt.Fprintf(&sb, "applied: %s\n", res.AppliedFixes)
	return sb.String()
}

// TestSessionsMatchGolden pins the sessions of the degree-ranking
// strategies (and of random) across commits: the same KB, strategy and
// seed must ask the same questions, offer the same fixes and record the
// same answers as the committed transcripts, at every worker count, and the
// degree-ranking strategies also with the phase-one tracker (and its degree
// table) rebuilt after every answer (Options.DisableIncremental). A ranking
// change that reorders tied positions or draws the RNG a different number
// of times shows up here. Regenerate with
//
//	go test ./internal/inquiry -run TestSessionsMatchGolden -update
//
// only when a change is meant to alter sessions.
func TestSessionsMatchGolden(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	for _, kb := range goldenKBs {
		for _, strat := range goldenStrategies {
			for _, seed := range []int64{3, 17} {
				path := filepath.Join("testdata", fmt.Sprintf("session_%s_%s_%d.golden", kb.name, strat, seed))
				workers := []int{1, 2, 8}
				if *updateGolden {
					par.SetWorkers(1)
					got := sessionTranscript(t, kb.params, strat, seed, Options{})
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					workers = []int{2, 8}
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (run with -update to record)", err)
				}
				for _, w := range workers {
					par.SetWorkers(w)
					if got := sessionTranscript(t, kb.params, strat, seed, Options{}); got != string(want) {
						t.Errorf("%s at -workers %d differs from the golden transcript:\n%s", path, w, firstDiff(got, string(want)))
					}
				}
				if strat != "random" {
					par.SetWorkers(1)
					if got := sessionTranscript(t, kb.params, strat, seed, Options{DisableIncremental: true}); got != string(want) {
						t.Errorf("%s with DisableIncremental differs from the golden transcript:\n%s", path, firstDiff(got, string(want)))
					}
				}
			}
		}
	}
}

// firstDiff renders the first differing line of got against want.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  got  %q\n  want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths differ: got %d lines, want %d", len(g), len(w))
}
