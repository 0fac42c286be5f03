package inquiry

import (
	"fmt"
	"strings"
	"testing"

	"kbrepair/internal/core"
	"kbrepair/internal/obs/sched"
	"kbrepair/internal/par"
	"kbrepair/internal/synth"
)

// repairTranscript runs one full two-phase repair of a fixed-seed
// synthetic workload (CDDs + TGDs, so both naive and chase-level conflict
// detection and the chase are exercised) and renders everything the user
// saw and did plus the final store — the byte-level identity the parallel
// conflict scan must preserve.
func repairTranscript(t *testing.T, workers int) string {
	return repairTranscriptOpts(t, workers, synth.Params{
		Seed:               9,
		NumFacts:           120,
		InconsistencyRatio: 0.25,
		NumCDDs:            8,
		NumTGDs:            4,
		JoinVarRatio:       0.3,
	}, Options{})
}

func repairTranscriptOpts(t *testing.T, workers int, params synth.Params, opts Options) string {
	t.Helper()
	par.SetWorkers(workers)
	g, err := synth.Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	kb := g.KB
	var sb strings.Builder
	sim := NewSimulatedUser(17)
	user := FuncUser(func(kb *core.KB, q Question) (core.Fix, error) {
		sb.WriteString(q.Describe(kb))
		f, err := sim.Choose(kb, q)
		if err == nil {
			fmt.Fprintf(&sb, "-> chose %s\n", f.Describe(kb.Facts))
		}
		return f, err
	})
	e := New(kb, OptiMCD{}, user, 17, opts)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Fatal("repair did not converge")
	}
	fmt.Fprintf(&sb, "questions=%d phase1=%d\n", res.Questions, res.InitialNaive)
	for i, rd := range res.Rounds {
		fmt.Fprintf(&sb, "round %d: phase=%d size=%d before=%d answer=%s\n",
			i, rd.Phase, rd.QuestionSize, rd.ConflictsBefore, rd.Answer.Describe(kb.Facts))
	}
	sb.WriteString(kb.Facts.String())
	return sb.String()
}

// TestRepairDeterministicAcrossWorkers is the end-to-end determinism gate
// of the parallel execution layer: a fixed-seed synthetic workload
// repaired with -workers 1 and -workers 8 must produce identical question
// transcripts (every question, every answer, in order) and identical final
// stores.
func TestRepairDeterministicAcrossWorkers(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	seq := repairTranscript(t, 1)
	if !strings.Contains(seq, "round 0:") {
		t.Fatal("workload asked no questions; test would be vacuous")
	}
	for _, w := range []int{2, 8} {
		if got := repairTranscript(t, w); got != seq {
			i := 0
			for i < len(got) && i < len(seq) && got[i] == seq[i] {
				i++
			}
			lo, hi := i-80, i+80
			if lo < 0 {
				lo = 0
			}
			clip := func(s string) string {
				if hi < len(s) {
					return s[lo:hi]
				}
				return s[lo:]
			}
			t.Fatalf("workers=%d transcript diverges from workers=1 at byte %d:\n--- workers=1\n…%s…\n--- workers=%d\n…%s…",
				w, i, clip(seq), w, clip(got))
		}
	}
}

// TestPiFilterDeterministicAcrossWorkers pins the full Π-repairability
// filtering path: with the Π-RepOpt fast path disabled, every candidate fix
// of every question goes through a full Algorithm 1 check. The transcript —
// question contents and order included — must be byte-identical at every
// worker count.
func TestPiFilterDeterministicAcrossWorkers(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	params := synth.Params{
		Seed:               11,
		NumFacts:           60,
		InconsistencyRatio: 0.25,
		NumCDDs:            6,
		NumTGDs:            2,
		JoinVarRatio:       0.3,
	}
	opts := Options{DisablePiRepOpt: true}
	seq := repairTranscriptOpts(t, 1, params, opts)
	if !strings.Contains(seq, "round 0:") {
		t.Fatal("workload asked no questions; test would be vacuous")
	}
	for _, w := range []int{2, 8} {
		if got := repairTranscriptOpts(t, w, params, opts); got != seq {
			t.Fatalf("workers=%d full-Π-check transcript diverges from workers=1 (len %d vs %d)",
				w, len(got), len(seq))
		}
	}
}

// TestRepairDeterministicWithSchedEnabled re-runs the end-to-end
// determinism gate with the lane recorder on: sched recording is
// observability-only, so transcripts and final stores must stay identical
// across worker counts, and the lane books must balance for every run.
func TestRepairDeterministicWithSchedEnabled(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	sched.Enable(0)
	t.Cleanup(sched.Disable)
	seq := repairTranscript(t, 1)
	if !strings.Contains(seq, "round 0:") {
		t.Fatal("workload asked no questions; test would be vacuous")
	}
	for _, w := range []int{2, 8} {
		sched.Enable(0) // fresh recorder per worker count
		if got := repairTranscript(t, w); got != seq {
			t.Fatalf("workers=%d transcript with sched enabled diverges from workers=1 (len %d vs %d)",
				w, len(got), len(seq))
		}
		s := sched.Capture()
		if s.IntervalsTotal == 0 {
			t.Fatalf("workers=%d: no lane intervals recorded; test would be vacuous", w)
		}
		if s.OpenFanouts != 0 || s.AbortedFanouts != 0 {
			t.Fatalf("workers=%d: lane books unbalanced after repair: open %d aborted %d",
				w, s.OpenFanouts, s.AbortedFanouts)
		}
	}
}

// TestConflictScanIsTheOnlyFanOut pins where a session runs in parallel: a
// repair of the synth TGD workload at four workers, with the lane recorder
// on, fans out under the conflict.scan label only — with and without the
// Π-RepOpt fast path. The chase, the tracker, ranking, fix generation and
// the Π-checks run inline on the engine's goroutine.
func TestConflictScanIsTheOnlyFanOut(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	t.Cleanup(sched.Disable)
	params := synth.Params{
		Seed:               9,
		NumFacts:           120,
		InconsistencyRatio: 0.25,
		NumCDDs:            8,
		NumTGDs:            4,
		JoinVarRatio:       0.3,
	}
	for _, opts := range []Options{{}, {DisablePiRepOpt: true}} {
		sched.Enable(0)
		if tr := repairTranscriptOpts(t, 4, params, opts); !strings.Contains(tr, "round 0:") {
			t.Fatal("workload asked no questions; test would be vacuous")
		}
		s := sched.Capture()
		if len(s.Labels) == 0 {
			t.Fatalf("fast path %v: no fan-out recorded; test would be vacuous", !opts.DisablePiRepOpt)
		}
		for _, l := range s.Labels {
			if l.Label != "conflict.scan" {
				t.Errorf("fast path %v: fan-out label %q (%d fan-outs), want conflict.scan only",
					!opts.DisablePiRepOpt, l.Label, l.Fanouts)
			}
		}
	}
}
