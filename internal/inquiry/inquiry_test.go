package inquiry

import (
	"math/rand"
	"testing"

	"kbrepair/internal/core"
	"kbrepair/internal/logic"
	"kbrepair/internal/store"
)

// fig1aKB builds the Figure 1(a) KB (CDDs only).
func fig1aKB(t testing.TB) *core.KB {
	t.Helper()
	s := store.MustFromAtoms([]logic.Atom{
		logic.NewAtom("prescribed", logic.C("Aspirin"), logic.C("John")),    // 0
		logic.NewAtom("hasAllergy", logic.C("John"), logic.C("Aspirin")),    // 1
		logic.NewAtom("hasAllergy", logic.C("Mike"), logic.C("Penicillin")), // 2
	})
	cdd := logic.MustCDD([]logic.Atom{
		logic.NewAtom("prescribed", logic.V("X"), logic.V("Y")),
		logic.NewAtom("hasAllergy", logic.V("Y"), logic.V("X")),
	})
	return core.MustKB(s, nil, []*logic.CDD{cdd})
}

// fig1bKB builds the Figure 1(b) KB (CDDs + TGD).
func fig1bKB(t testing.TB) *core.KB {
	t.Helper()
	s := store.MustFromAtoms([]logic.Atom{
		logic.NewAtom("prescribed", logic.C("Aspirin"), logic.C("John")),         // 0
		logic.NewAtom("hasAllergy", logic.C("John"), logic.C("Aspirin")),         // 1
		logic.NewAtom("hasAllergy", logic.C("Mike"), logic.C("Penicillin")),      // 2
		logic.NewAtom("hasPain", logic.C("John"), logic.C("Migraine")),           // 3
		logic.NewAtom("isPainKillerFor", logic.C("Nsaids"), logic.C("Migraine")), // 4
		logic.NewAtom("incompatible", logic.C("Aspirin"), logic.C("Nsaids")),     // 5
	})
	tgds := []*logic.TGD{logic.MustTGD(
		[]logic.Atom{
			logic.NewAtom("isPainKillerFor", logic.V("X"), logic.V("Y")),
			logic.NewAtom("hasPain", logic.V("Z"), logic.V("Y")),
		},
		[]logic.Atom{logic.NewAtom("prescribed", logic.V("X"), logic.V("Z"))},
	)}
	cdds := []*logic.CDD{
		logic.MustCDD([]logic.Atom{
			logic.NewAtom("prescribed", logic.V("X"), logic.V("Y")),
			logic.NewAtom("hasAllergy", logic.V("Y"), logic.V("X")),
		}),
		logic.MustCDD([]logic.Atom{
			logic.NewAtom("prescribed", logic.V("X"), logic.V("Z")),
			logic.NewAtom("prescribed", logic.V("Y"), logic.V("Z")),
			logic.NewAtom("incompatible", logic.V("X"), logic.V("Y")),
		}),
	}
	return core.MustKB(s, tgds, cdds)
}

func TestSoundQuestionExample42(t *testing.T) {
	kb := fig1aKB(t)
	pc := core.NewPiChecker(kb)
	pi := core.NewPi()
	// Positions of the conflict atoms prescribed(Aspirin,John) and
	// hasAllergy(John,Aspirin).
	positions := []core.Position{
		{Fact: 0, Arg: 0}, {Fact: 0, Arg: 1},
		{Fact: 1, Arg: 0}, {Fact: 1, Arg: 1},
	}
	fixes, err := SoundQuestion(kb, pc, pi, positions, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Example 4.2 expects, per position: the domain values different from
	// the current one that survive the soundness filter, plus a fresh null.
	// adom(prescribed,1) = {Aspirin}: only the null survives at (0,0).
	// adom(prescribed,2) = {John}: only the null at (0,1).
	// adom(hasAllergy,1) = {John, Mike}: Mike + null at (1,0).
	// adom(hasAllergy,2) = {Aspirin, Penicillin}: Penicillin + null at (1,1).
	byPos := make(map[core.Position]int)
	for _, f := range fixes {
		byPos[f.Pos]++
		if !f.Value.IsNull() {
			switch f.Pos {
			case (core.Position{Fact: 1, Arg: 0}):
				if f.Value != logic.C("Mike") {
					t.Errorf("unexpected value %v at (1,0)", f.Value)
				}
			case (core.Position{Fact: 1, Arg: 1}):
				if f.Value != logic.C("Penicillin") {
					t.Errorf("unexpected value %v at (1,1)", f.Value)
				}
			default:
				t.Errorf("unexpected constant fix %v", f)
			}
		}
	}
	want := map[core.Position]int{
		{Fact: 0, Arg: 0}: 1,
		{Fact: 0, Arg: 1}: 1,
		{Fact: 1, Arg: 0}: 2,
		{Fact: 1, Arg: 1}: 2,
	}
	for p, n := range want {
		if byPos[p] != n {
			t.Errorf("position %v: %d fixes, want %d (all: %v)", p, byPos[p], n, fixes)
		}
	}
}

func TestSoundQuestionSkipsPiPositions(t *testing.T) {
	kb := fig1aKB(t)
	pc := core.NewPiChecker(kb)
	pi := core.NewPi(core.Position{Fact: 0, Arg: 0})
	fixes, err := SoundQuestion(kb, pc, pi, []core.Position{{Fact: 0, Arg: 0}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(fixes) != 0 {
		t.Errorf("Π position got fixes: %v", fixes)
	}
}

func TestSoundQuestionFiltersUnsoundFixes(t *testing.T) {
	// Example 3.7 shape: p(a,b), q(b,d) with CDD p(X,Y), q(Y,Z) → ⊥.
	// With Π pinning q's join position to b, the fix (p(a,b),2,b) — a
	// no-op — is excluded by Def 3.1 (t must differ), but consider the fix
	// on q(b,d)@1 to value "a" while p(a,b)@2 is pinned... Construct the
	// situation where a domain value is filtered: pin p@2=b in Π; then fix
	// candidates for q@1 include the value b (from adom(q,1)={b}? no, it
	// equals the current value). Use a richer store to get a genuinely
	// filtered value.
	s := store.MustFromAtoms([]logic.Atom{
		logic.NewAtom("p", logic.C("a"), logic.C("b")),
		logic.NewAtom("q", logic.C("x"), logic.C("d")),
		logic.NewAtom("q", logic.C("b"), logic.C("e")),
	})
	cdd := logic.MustCDD([]logic.Atom{
		logic.NewAtom("p", logic.V("X"), logic.V("Y")),
		logic.NewAtom("q", logic.V("Y"), logic.V("Z")),
	})
	kb := core.MustKB(s, nil, []*logic.CDD{cdd})
	pc := core.NewPiChecker(kb)
	// Pin p(a,b) entirely: the only repairs change q-atoms.
	pi := core.NewPi(core.Position{Fact: 0, Arg: 0}, core.Position{Fact: 0, Arg: 1})
	// Candidate fixes for q(x,d)@1: adom(q,1)={x,b} → candidate value b,
	// plus a null. Setting it to b would join with pinned p(·,b): unsound,
	// must be filtered.
	fixes, err := SoundQuestion(kb, pc, pi, []core.Position{{Fact: 1, Arg: 0}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fixes {
		if f.Value == logic.C("b") {
			t.Errorf("unsound fix %v offered", f)
		}
	}
	if len(fixes) != 1 || !fixes[0].Value.IsNull() {
		t.Errorf("fixes = %v, want only the fresh null", fixes)
	}
}

func TestSoundQuestionMaxValues(t *testing.T) {
	s := store.New()
	for _, c := range []string{"a", "b", "c", "d", "e", "f"} {
		s.MustAdd(logic.NewAtom("p", logic.C(c), logic.C("k")))
	}
	s.MustAdd(logic.NewAtom("q", logic.C("k")))
	cdd := logic.MustCDD([]logic.Atom{
		logic.NewAtom("p", logic.V("X"), logic.V("Y")),
		logic.NewAtom("q", logic.V("Y")),
	})
	kb := core.MustKB(s, nil, []*logic.CDD{cdd})
	pc := core.NewPiChecker(kb)
	fixes, err := SoundQuestion(kb, pc, core.NewPi(), []core.Position{{Fact: 0, Arg: 0}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(fixes) > 3 {
		t.Errorf("cap ignored: %d fixes", len(fixes))
	}
	hasNull := false
	for _, f := range fixes {
		if f.Value.IsNull() {
			hasNull = true
		}
	}
	if !hasNull {
		t.Error("cap dropped the fresh null")
	}
}

func TestQuestionHelpers(t *testing.T) {
	kb := fig1aKB(t)
	f := core.Fix{Pos: core.Position{Fact: 0, Arg: 0}, Value: logic.C("z")}
	q := Question{Fixes: core.FixSet{f}}
	if q.Empty() {
		t.Error("non-empty question Empty")
	}
	if !q.Contains(f) {
		t.Error("Contains wrong")
	}
	if q.Describe(kb) == "" {
		t.Error("empty Describe")
	}
	if !(Question{}).Empty() {
		t.Error("empty question not Empty")
	}
}

// TestInquirySoundnessAndTermination is Proposition 4.4: for every dialogue
// with any (simulated) user, the inquiry terminates with a consistent KB.
func TestInquirySoundnessAndTermination(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		for _, strat := range AllStrategies() {
			kb := fig1bKB(t)
			e := New(kb, strat, NewSimulatedUser(seed), seed, Options{})
			res, err := e.Run()
			if err != nil {
				t.Fatalf("strategy %s seed %d: %v", strat.Name(), seed, err)
			}
			if !res.Consistent {
				t.Errorf("strategy %s seed %d: final KB inconsistent", strat.Name(), seed)
			}
			if res.Questions == 0 {
				t.Errorf("strategy %s seed %d: no questions asked on inconsistent KB", strat.Name(), seed)
			}
			if res.Questions > kb.Facts.NumPositions() {
				t.Errorf("strategy %s seed %d: %d questions > |pos(F)| = %d",
					strat.Name(), seed, res.Questions, kb.Facts.NumPositions())
			}
		}
	}
}

// TestOracleSoundness is Proposition 4.8: an inquiry with an oracle ends in
// exactly the oracle's repair (up to renaming of labeled nulls).
func TestOracleSoundness(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		kb := fig1aKB(t)
		// Oracle repair: John's allergy becomes unknown (F3 of Ex. 1.3).
		target := kb.Facts.Clone()
		target.MustSetValue(core.Position{Fact: 1, Arg: 1}, target.NullForPos(core.Position{Fact: 1, Arg: 1}))
		oracle := NewOracle(target, seed)
		e := New(kb, Random{}, oracle, seed, Options{})
		res, err := e.RunBasic()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Consistent {
			t.Fatalf("seed %d: inconsistent result", seed)
		}
		if !kb.Facts.EqualUpToNullRenaming(target) {
			t.Errorf("seed %d: result differs from oracle repair:\n%s\nvs target:\n%s",
				seed, kb.Facts, target)
		}
		if len(oracle.RemainingDiff(kb)) != 0 {
			t.Errorf("seed %d: oracle diff not exhausted", seed)
		}
	}
}

// TestOracleSoundnessWithTGDs runs Prop 4.8 on the Figure 1(b) KB with an
// oracle repair in the spirit of Example 4.9.
func TestOracleSoundnessWithTGDs(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		kb := fig1bKB(t)
		// Oracle repair in the spirit of Example 4.9: the allergy belongs
		// to Mike, and the incompatibility's first drug becomes unknown.
		// (Def. 3.1 requires fix values to come from the per-position
		// active domain or be fresh nulls; both fixes below qualify, and
		// dropping either leaves a violation, so the diff is an r-fix.)
		target := kb.Facts.Clone()
		target.MustSetValue(core.Position{Fact: 1, Arg: 0}, logic.C("Mike"))
		target.MustSetValue(core.Position{Fact: 5, Arg: 0}, target.NullForPos(core.Position{Fact: 5, Arg: 0}))
		// Sanity: the target must be a consistent KB.
		tkb := kb.WithFacts(target.Clone())
		if ok, err := tkb.IsConsistent(); err != nil || !ok {
			t.Fatalf("oracle target inconsistent: ok=%v err=%v", ok, err)
		}
		oracle := NewOracle(target, seed)
		e := New(kb, Random{}, oracle, seed, Options{})
		res, err := e.RunBasic()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Consistent {
			t.Fatalf("seed %d: inconsistent result", seed)
		}
		if !kb.Facts.EqualUpToNullRenaming(target) {
			t.Errorf("seed %d: result differs from oracle repair:\n%svs target:\n%s",
				seed, kb.Facts, target)
		}
	}
}

// TestOracleAnswersEveryQuestion is Lemma 4.7 in executable form: during a
// basic inquiry with an oracle, every generated question contains at least
// one fix of the oracle's diff (otherwise Choose errors, failing the test).
func TestOracleAnswersEveryQuestion(t *testing.T) {
	kb := fig1bKB(t)
	target := kb.Facts.Clone()
	target.MustSetValue(core.Position{Fact: 0, Arg: 0}, target.NullForPos(core.Position{Fact: 0, Arg: 0}))
	target.MustSetValue(core.Position{Fact: 1, Arg: 1}, target.NullForPos(core.Position{Fact: 1, Arg: 1}))
	tkb := kb.WithFacts(target.Clone())
	if ok, _ := tkb.IsConsistent(); !ok {
		t.Fatal("target not consistent")
	}
	oracle := NewOracle(target, 1)
	e := New(kb, Random{}, oracle, 1, Options{})
	if _, err := e.RunBasic(); err != nil {
		t.Fatalf("oracle failed to answer: %v", err)
	}
}

func TestTwoPhaseEngineOnCDDOnlyKB(t *testing.T) {
	kb := fig1aKB(t)
	e := New(kb, OptiJoin{}, NewSimulatedUser(3), 3, Options{})
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Error("inconsistent result")
	}
	for _, rd := range res.Rounds {
		if rd.Phase != 1 {
			t.Error("CDD-only KB should never enter phase 2")
		}
	}
	if res.InitialNaive != 1 || res.InitialTotal != 1 {
		t.Errorf("initial conflicts: naive=%d total=%d", res.InitialNaive, res.InitialTotal)
	}
}

func TestTwoPhaseEngineUsesPhase2(t *testing.T) {
	// A KB whose only conflict appears through the chase: phase 1 asks
	// nothing, phase 2 resolves it.
	s := store.MustFromAtoms([]logic.Atom{
		logic.NewAtom("prescribed", logic.C("Aspirin"), logic.C("John")),
		logic.NewAtom("hasPain", logic.C("John"), logic.C("Migraine")),
		logic.NewAtom("isPainKillerFor", logic.C("Nsaids"), logic.C("Migraine")),
		logic.NewAtom("incompatible", logic.C("Aspirin"), logic.C("Nsaids")),
	})
	tgds := []*logic.TGD{logic.MustTGD(
		[]logic.Atom{
			logic.NewAtom("isPainKillerFor", logic.V("X"), logic.V("Y")),
			logic.NewAtom("hasPain", logic.V("Z"), logic.V("Y")),
		},
		[]logic.Atom{logic.NewAtom("prescribed", logic.V("X"), logic.V("Z"))},
	)}
	cdds := []*logic.CDD{logic.MustCDD([]logic.Atom{
		logic.NewAtom("prescribed", logic.V("X"), logic.V("Z")),
		logic.NewAtom("prescribed", logic.V("Y"), logic.V("Z")),
		logic.NewAtom("incompatible", logic.V("X"), logic.V("Y")),
	})}
	kb := core.MustKB(s, tgds, cdds)
	e := New(kb, Random{}, NewSimulatedUser(5), 5, Options{})
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Fatal("inconsistent result")
	}
	if res.InitialNaive != 0 {
		t.Errorf("InitialNaive = %d, want 0", res.InitialNaive)
	}
	sawPhase2 := false
	for _, rd := range res.Rounds {
		if rd.Phase == 2 {
			sawPhase2 = true
		}
	}
	if !sawPhase2 {
		t.Error("phase 2 never ran despite chase-only conflict")
	}
}

func TestConflictSeriesTracking(t *testing.T) {
	kb := fig1bKB(t)
	e := New(kb, OptiMCD{}, NewSimulatedUser(7), 7, Options{TrackConflictSeries: true})
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	series := res.ConflictSeries()
	if len(series) != res.Questions {
		t.Fatalf("series length %d != questions %d", len(series), res.Questions)
	}
	if series[len(series)-1] != 0 {
		t.Errorf("final series value = %d, want 0", series[len(series)-1])
	}
	for _, v := range series {
		if v < 0 {
			t.Error("series not populated")
		}
	}
}

func TestStrategyByName(t *testing.T) {
	for _, name := range StrategyNames {
		s, err := ByName(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("ByName(%s).Name() = %s", name, s.Name())
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestSimulatedUserUniform(t *testing.T) {
	u := NewSimulatedUser(1)
	q := Question{Fixes: core.FixSet{
		{Pos: core.Position{Fact: 0, Arg: 0}, Value: logic.C("a")},
		{Pos: core.Position{Fact: 0, Arg: 1}, Value: logic.C("b")},
	}}
	seen := make(map[core.Fix]int)
	for i := 0; i < 200; i++ {
		f, err := u.Choose(nil, q)
		if err != nil {
			t.Fatal(err)
		}
		seen[f]++
	}
	if len(seen) != 2 {
		t.Errorf("uniform user never chose one option: %v", seen)
	}
	if _, err := u.Choose(nil, Question{}); err == nil {
		t.Error("empty question answered")
	}
}

func TestFuncUser(t *testing.T) {
	want := core.Fix{Pos: core.Position{Fact: 1, Arg: 0}, Value: logic.C("x")}
	u := FuncUser(func(_ *core.KB, q Question) (core.Fix, error) { return q.Fixes[0], nil })
	got, err := u.Choose(nil, Question{Fixes: core.FixSet{want}})
	if err != nil || got != want {
		t.Errorf("FuncUser = %v, %v", got, err)
	}
}

func TestOracleMatchesNullEquivalence(t *testing.T) {
	kb := fig1aKB(t)
	target := kb.Facts.Clone()
	target.MustSetValue(core.Position{Fact: 1, Arg: 1}, logic.N("oracleNull"))
	oracle := NewOracle(target, 0)
	// A fresh-null fix at the same position matches.
	fNull := core.Fix{Pos: core.Position{Fact: 1, Arg: 1}, Value: logic.N("questionNull")}
	if !oracle.Matches(kb, fNull) {
		t.Error("null-for-null fix not matched")
	}
	// A constant fix at that position does not match a null target.
	fConst := core.Fix{Pos: core.Position{Fact: 1, Arg: 1}, Value: logic.C("Penicillin")}
	if oracle.Matches(kb, fConst) {
		t.Error("constant fix matched null target")
	}
	// A fix at an already-agreeing position is not in the diff.
	fSame := core.Fix{Pos: core.Position{Fact: 0, Arg: 0}, Value: logic.C("whatever")}
	if oracle.Matches(kb, fSame) {
		t.Error("agreeing position matched")
	}
}

func TestAblationModesStillSound(t *testing.T) {
	for _, opts := range []Options{
		{DisablePiRepOpt: true},
		{DisableIncremental: true},
		{DisablePiRepOpt: true, DisableIncremental: true},
	} {
		kb := fig1bKB(t)
		e := New(kb, OptiJoin{}, NewSimulatedUser(11), 11, opts)
		res, err := e.Run()
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		if !res.Consistent {
			t.Errorf("opts %+v: inconsistent", opts)
		}
		if opts.DisablePiRepOpt && res.FastHits != 0 {
			t.Errorf("fast path used despite DisablePiRepOpt")
		}
	}
}

func TestRngDeterminism(t *testing.T) {
	run := func() *Result {
		kb := fig1bKB(t)
		e := New(kb, Random{}, NewSimulatedUser(42), 42, Options{})
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Questions != b.Questions {
		t.Errorf("non-deterministic question counts: %d vs %d", a.Questions, b.Questions)
	}
	if a.AppliedFixes.String() != b.AppliedFixes.String() {
		t.Error("non-deterministic fixes")
	}
}

func TestEngineNilUser(t *testing.T) {
	kb := fig1aKB(t)
	e := New(kb, nil, nil, 0, Options{})
	if _, err := e.Run(); err == nil {
		t.Error("nil user accepted by Run")
	}
	if _, err := e.RunBasic(); err == nil {
		t.Error("nil user accepted by RunBasic")
	}
}

func TestOptiPropPropagation(t *testing.T) {
	// Two independent conflicts; answering the first should propagate pins
	// on the first conflict's other offered positions (they are in no other
	// conflict).
	s := store.MustFromAtoms([]logic.Atom{
		logic.NewAtom("p", logic.C("a"), logic.C("b")),
		logic.NewAtom("q", logic.C("b"), logic.C("c")),
		logic.NewAtom("p", logic.C("x"), logic.C("y")),
		logic.NewAtom("q", logic.C("y"), logic.C("z")),
	})
	cdd := logic.MustCDD([]logic.Atom{
		logic.NewAtom("p", logic.V("X"), logic.V("Y")),
		logic.NewAtom("q", logic.V("Y"), logic.V("Z")),
	})
	kb := core.MustKB(s, nil, []*logic.CDD{cdd})
	e := New(kb, OptiProp{}, NewSimulatedUser(2), 2, Options{})
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Fatal("inconsistent")
	}
	// With propagation, Π contains more positions than just the answered
	// ones.
	if len(e.Pi) <= res.Questions {
		t.Errorf("no propagation happened: |Π| = %d, questions = %d", len(e.Pi), res.Questions)
	}
}

func TestRunBasicStressRandomKBs(t *testing.T) {
	// Random small KBs with CDDs: every inquiry must terminate consistent.
	consts := []logic.Term{logic.C("a"), logic.C("b"), logic.C("c")}
	for seed := int64(0); seed < 15; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := store.New()
		for i := 0; i < 8; i++ {
			s.MustAdd(logic.NewAtom("p", consts[r.Intn(3)], consts[r.Intn(3)]))
		}
		for i := 0; i < 4; i++ {
			s.MustAdd(logic.NewAtom("q", consts[r.Intn(3)]))
		}
		cdds := []*logic.CDD{
			logic.MustCDD([]logic.Atom{
				logic.NewAtom("p", logic.V("X"), logic.V("Y")),
				logic.NewAtom("q", logic.V("Y")),
			}),
			logic.MustCDD([]logic.Atom{logic.NewAtom("p", logic.V("X"), logic.V("X"))}),
		}
		kb := core.MustKB(s, nil, cdds)
		e := New(kb, OptiMCD{}, NewSimulatedUser(seed), seed, Options{})
		res, err := e.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Consistent {
			t.Errorf("seed %d: inconsistent", seed)
		}
	}
}

func TestResultDelayHelpers(t *testing.T) {
	empty := &Result{}
	if empty.AvgDelay() != 0 {
		t.Error("empty AvgDelay")
	}
	kb := fig1aKB(t)
	e := New(kb, Random{}, NewSimulatedUser(1), 1, Options{})
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	delays := res.Delays()
	if len(delays) != res.Questions {
		t.Errorf("Delays len = %d, questions = %d", len(delays), res.Questions)
	}
	if res.AvgDelay() < 0 {
		t.Error("negative AvgDelay")
	}
}

func TestReleasePropagated(t *testing.T) {
	kb := fig1aKB(t)
	e := New(kb, OptiProp{}, NewSimulatedUser(1), 1, Options{})
	p1 := core.Position{Fact: 2, Arg: 0}
	p2 := core.Position{Fact: 2, Arg: 1}
	e.propagate(p1)
	e.propagate(p2)
	if !e.Pi.Has(p1) || !e.Pi.Has(p2) {
		t.Fatal("propagate did not pin")
	}
	n := e.releasePropagated()
	if n != 2 {
		t.Errorf("released %d, want 2", n)
	}
	if e.Pi.Has(p1) || e.Pi.Has(p2) {
		t.Error("release did not unpin")
	}
	// Releasing again is a no-op.
	if e.releasePropagated() != 0 {
		t.Error("double release")
	}
}

func TestPickRandomNilCases(t *testing.T) {
	if pickRandom(nil, nil) != nil {
		t.Error("empty conflicts should pick nil")
	}
}

func TestMaxQuestionsOverride(t *testing.T) {
	kb := fig1aKB(t)
	e := New(kb, Random{}, NewSimulatedUser(1), 1, Options{MaxQuestions: 3})
	if e.maxQuestions() != 3 {
		t.Error("override ignored")
	}
	e2 := New(kb, Random{}, NewSimulatedUser(1), 1, Options{})
	if e2.maxQuestions() < kb.Facts.NumPositions() {
		t.Error("default max too small")
	}
}
