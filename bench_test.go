// Benchmarks regenerating every table and figure of the paper's §6 (at
// reduced scale so `go test -bench=.` completes in minutes; cmd/kbbench
// runs the same experiments at paper scale). Domain metrics — average
// question counts, conflicts resolved per question, mean delay — are
// published through b.ReportMetric next to the usual ns/op.
package kbrepair

import (
	"fmt"
	"testing"

	"kbrepair/internal/chase"
	"kbrepair/internal/conflict"
	"kbrepair/internal/core"
	"kbrepair/internal/durum"
	"kbrepair/internal/exp"
	"kbrepair/internal/inquiry"
	"kbrepair/internal/synth"
)

// reportStrategyMetrics publishes the per-strategy averages of a Figure
// 2/3-style run.
func reportStrategyMetrics(b *testing.B, rows []exp.StrategyAvg) {
	b.Helper()
	for _, r := range rows {
		b.ReportMetric(r.AvgQuestions, r.Strategy+"_questions")
		b.ReportMetric(r.AvgConflictsPerQuestion, r.Strategy+"_confl/q")
	}
}

// BenchmarkFig2Questions regenerates Figure 2 (a)+(c): average questions
// and conflicts-per-question for every strategy on Durum Wheat v1.
func BenchmarkFig2Questions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig2(durum.V1, 1, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportStrategyMetrics(b, res.Rows)
		}
	}
}

// BenchmarkFig2Conflicts regenerates Figure 2 (b)+(d) on Durum Wheat v2.
func BenchmarkFig2Conflicts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig2(durum.V2, 1, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportStrategyMetrics(b, res.Rows)
		}
	}
}

// BenchmarkFig3 regenerates Figure 3 (a)+(b): synthetic CDD-only KBs with
// increasing inconsistency ratio (reduced to 300 atoms, 2 ratios, 2 reps).
func BenchmarkFig3(b *testing.B) {
	p := exp.Fig3Params{NumFacts: 300, Ratios: []float64{0.1, 0.2}, Reps: 2, Seed: 1}
	for i := 0; i < b.N; i++ {
		rows, err := exp.RunFig3(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportStrategyMetrics(b, rows[len(rows)-1].Rows)
		}
	}
}

// BenchmarkFig4a regenerates Figure 4(a): convergence on a CDD-only KB
// (reduced from 3004 to 600 atoms).
func BenchmarkFig4a(b *testing.B) {
	p := exp.Fig4Params{NumFacts: 600, Ratio: 0.25, NumCDDs: 12, Seed: 4}
	for i := 0; i < b.N; i++ {
		series, _, err := exp.RunFig4(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range series {
				b.ReportMetric(float64(len(s.Conflicts)-1), s.Strategy+"_questions")
			}
		}
	}
}

// BenchmarkFig4b regenerates Figure 4(b): convergence with CDDs and TGDs
// interleaving through the chase (reduced from 800 to 300 atoms).
func BenchmarkFig4b(b *testing.B) {
	p := exp.Fig4Params{NumFacts: 300, Ratio: 0.25, NumCDDs: 20, NumTGDs: 10, Seed: 5}
	for i := 0; i < b.N; i++ {
		series, _, err := exp.RunFig4(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range series {
				b.ReportMetric(float64(len(s.Conflicts)-1), s.Strategy+"_questions")
			}
		}
	}
}

// BenchmarkFig5a regenerates Figure 5(a): delay time vs. inconsistency
// ratio (reduced from 3000 to 500 atoms).
func BenchmarkFig5a(b *testing.B) {
	p := exp.Fig5aParams{NumFacts: 500, Ratios: []float64{0.2, 0.4, 0.6, 0.8}, Reps: 1, Seed: 6}
	for i := 0; i < b.N; i++ {
		points, err := exp.RunFig5a(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, pt := range points {
				b.ReportMetric(pt.Summary.Mean*1000, "delay_ms_"+pt.Label)
			}
		}
	}
}

// BenchmarkFig5b regenerates Figure 5(b): delay time vs. KB size (reduced
// base size 400).
func BenchmarkFig5b(b *testing.B) {
	p := exp.Fig5bParams{BaseFacts: 400, Growths: []float64{0, 0.2, 0.4, 0.6}, Reps: 1, Seed: 7}
	for i := 0; i < b.N; i++ {
		points, err := exp.RunFig5b(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, pt := range points {
				b.ReportMetric(pt.Summary.Mean*1000, "delay_ms_"+pt.Label)
			}
		}
	}
}

// BenchmarkFig5c regenerates Figure 5(c): delay time vs. dependency depth
// on a fully inconsistent KB (reduced from 400 to 150 atoms, 30 CDDs,
// 10·d TGDs).
func BenchmarkFig5c(b *testing.B) {
	p := exp.Fig5cParams{NumFacts: 150, NumCDDs: 30, Depths: []int{1, 2, 3, 4}, TGDsPerStep: 10, Reps: 1, Seed: 8}
	for i := 0; i < b.N; i++ {
		points, err := exp.RunFig5c(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, pt := range points {
				b.ReportMetric(pt.Summary.Mean*1000, "delay_ms_"+pt.Label)
			}
		}
	}
}

// BenchmarkUserModel measures the §7-extension robustness study: dialogue
// length and residual distance vs. oracle error rate.
func BenchmarkUserModel(b *testing.B) {
	p := exp.UserModelParams{NumFacts: 120, Ratio: 0.2, ErrorRates: []float64{0, 0.5}, Reps: 2, Seed: 11}
	for i := 0; i < b.N; i++ {
		points, err := exp.RunUserModel(p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, pt := range points {
				b.ReportMetric(pt.AvgResidualDiff, fmt.Sprintf("residual_e%.1f", pt.ErrorRate))
			}
		}
	}
}

// BenchmarkAblationPiRep compares the Π-RepOpt fast path against full
// Algorithm 1 checks (motivated by §5).
func BenchmarkAblationPiRep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunAblationPiRep(9)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Speedup, "speedup_x")
		}
	}
}

// BenchmarkAblationUpdateConflicts compares incremental conflict
// maintenance against from-scratch recomputation (§5).
func BenchmarkAblationUpdateConflicts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunAblationIncremental(9)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Speedup, "speedup_x")
		}
	}
}

// ---- Micro-benchmarks on the substrates ----

func synthKB(b *testing.B, tgds int) *core.KB {
	b.Helper()
	g, err := synth.Generate(synth.Params{
		Seed: 3, NumFacts: 400, InconsistencyRatio: 0.2, NumCDDs: 15, NumTGDs: tgds, Depth: max(1, tgds/5),
	})
	if err != nil {
		b.Fatal(err)
	}
	return g.KB
}

// BenchmarkChase measures the restricted chase on the Durum Wheat KB
// (567 → ~1170 atoms, 269 TGDs).
func BenchmarkChase(b *testing.B) {
	kb, _, err := durum.Build(durum.V1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chase.Run(kb.Facts, kb.Rules, kb.ChaseOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConsistencyOpt measures CheckConsistency-Opt on Durum Wheat.
func BenchmarkConsistencyOpt(b *testing.B) {
	kb, _, err := durum.Build(durum.V1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kb.IsConsistent(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConflictDetection measures allconflicts(K) on a synthetic KB
// with TGDs.
func BenchmarkConflictDetection(b *testing.B) {
	kb := synthKB(b, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := conflict.All(kb.Facts, kb.Rules, kb.ChaseOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdateConflicts measures the incremental tracker against one
// position update.
func BenchmarkUpdateConflicts(b *testing.B) {
	kb := synthKB(b, 0)
	tr := conflict.NewTracker(kb.Facts, kb.Rules)
	pos := core.Position{Fact: 0, Arg: 0}
	vals := kb.Facts.ActiveDomain(kb.Facts.FactRef(0).Pred, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kb.Facts.MustSetValue(pos, vals[i%len(vals)])
		tr.Update(0)
	}
}

// BenchmarkPiRepairable measures one full Algorithm 1 check on Durum Wheat.
func BenchmarkPiRepairable(b *testing.B) {
	kb, _, err := durum.Build(durum.V1)
	if err != nil {
		b.Fatal(err)
	}
	pi := core.NewPi(core.Position{Fact: 0, Arg: 0})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PiRepairable(kb, pi); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSoundQuestion measures Algorithm 2 on a conflict of the Durum
// Wheat KB with all optimizations on.
func BenchmarkSoundQuestion(b *testing.B) {
	kb, _, err := durum.Build(durum.V1)
	if err != nil {
		b.Fatal(err)
	}
	cs := conflict.AllNaive(kb.Facts, kb.Rules)
	if len(cs) == 0 {
		b.Fatal("no conflicts")
	}
	pc := core.NewPiChecker(kb)
	pi := core.NewPi()
	positions := cs[0].Positions(kb.Facts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := inquiry.SoundQuestion(kb, pc, pi, positions, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(q) == 0 {
			b.Fatal("empty question")
		}
	}
}
