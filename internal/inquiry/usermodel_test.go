package inquiry

import (
	"testing"

	"kbrepair/internal/core"
	"kbrepair/internal/logic"
)

func TestNoisyOracleZeroNoiseEqualsOracle(t *testing.T) {
	kb := fig1aKB(t)
	target := kb.Facts.Clone()
	target.MustSetValue(core.Position{Fact: 1, Arg: 1}, target.NullForPos(core.Position{Fact: 1, Arg: 1}))
	noisy := NewNoisyOracle(NewOracle(target, 1), 0, 1)
	e := New(kb, Random{}, noisy, 1, Options{})
	res, err := e.RunBasic()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Fatal("inconsistent result")
	}
	if noisy.Mistakes != 0 {
		t.Errorf("mistakes = %d with zero error rate", noisy.Mistakes)
	}
	if !kb.Facts.EqualUpToNullRenaming(target) {
		t.Error("zero-noise oracle did not reproduce the repair")
	}
}

func TestNoisyOracleAlwaysTerminatesConsistent(t *testing.T) {
	// Even a fully random "oracle" (error rate 1) keeps the soundness
	// guarantee: the dialogue ends in a consistent KB.
	for seed := int64(0); seed < 6; seed++ {
		kb := fig1bKB(t)
		target := kb.Facts.Clone()
		target.MustSetValue(core.Position{Fact: 1, Arg: 0}, logic.C("Mike"))
		target.MustSetValue(core.Position{Fact: 5, Arg: 0}, target.NullForPos(core.Position{Fact: 5, Arg: 0}))
		noisy := NewNoisyOracle(NewOracle(target, seed), 1.0, seed)
		e := New(kb, Random{}, noisy, seed, Options{})
		res, err := e.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Consistent {
			t.Errorf("seed %d: inconsistent", seed)
		}
		if noisy.Mistakes == 0 {
			t.Errorf("seed %d: error rate 1 produced no mistakes", seed)
		}
	}
}

func TestCautiousUserBias(t *testing.T) {
	nullFix := core.Fix{Pos: core.Position{Fact: 0, Arg: 0}, Value: logic.N("n1")}
	constFix := core.Fix{Pos: core.Position{Fact: 0, Arg: 0}, Value: logic.C("a")}
	q := Question{Fixes: core.FixSet{nullFix, constFix}}

	alwaysNull := NewCautiousUser(1, 1)
	for i := 0; i < 20; i++ {
		f, err := alwaysNull.Choose(nil, q)
		if err != nil {
			t.Fatal(err)
		}
		if !f.Value.IsNull() {
			t.Fatal("NullBias=1 chose a constant")
		}
	}
	neverNull := NewCautiousUser(0, 1)
	for i := 0; i < 20; i++ {
		f, err := neverNull.Choose(nil, q)
		if err != nil {
			t.Fatal(err)
		}
		if f.Value.IsNull() {
			t.Fatal("NullBias=0 chose a null")
		}
	}
	// Degenerate questions still answerable.
	onlyNulls := Question{Fixes: core.FixSet{nullFix}}
	if _, err := neverNull.Choose(nil, onlyNulls); err != nil {
		t.Errorf("null-only question unanswerable: %v", err)
	}
	onlyConsts := Question{Fixes: core.FixSet{constFix}}
	if _, err := alwaysNull.Choose(nil, onlyConsts); err != nil {
		t.Errorf("const-only question unanswerable: %v", err)
	}
	if _, err := alwaysNull.Choose(nil, Question{}); err == nil {
		t.Error("empty question answered")
	}
}

func TestCautiousUserDrivesInquiry(t *testing.T) {
	for _, bias := range []float64{0, 0.5, 1} {
		kb := fig1bKB(t)
		e := New(kb, OptiJoin{}, NewCautiousUser(bias, 3), 3, Options{})
		res, err := e.Run()
		if err != nil {
			t.Fatalf("bias %.1f: %v", bias, err)
		}
		if !res.Consistent {
			t.Errorf("bias %.1f: inconsistent", bias)
		}
		if bias == 1 {
			// The maximally cautious user only ever introduces nulls.
			for _, f := range res.AppliedFixes {
				if !f.Value.IsNull() {
					t.Errorf("bias 1 applied constant fix %v", f)
				}
			}
		}
	}
}

func TestAdaptiveStrategy(t *testing.T) {
	s := NewAdaptiveStrategy()
	if s.Name() != "adaptive" {
		t.Error("name")
	}
	for seed := int64(0); seed < 5; seed++ {
		kb := fig1bKB(t)
		e := New(kb, NewAdaptiveStrategy(), NewSimulatedUser(seed), seed, Options{})
		res, err := e.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Consistent {
			t.Errorf("seed %d: inconsistent", seed)
		}
	}
}

func TestAdaptiveStrategyLearnsWeights(t *testing.T) {
	kb := fig1bKB(t)
	s := NewAdaptiveStrategy()
	e := New(kb, s, NewSimulatedUser(1), 1, Options{})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	learned := false
	for _, w := range s.weights {
		if w > 1 {
			learned = true
		}
	}
	if !learned {
		t.Error("no predicate weights learned after answers")
	}
}
