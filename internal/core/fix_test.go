package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"kbrepair/internal/logic"
	"kbrepair/internal/store"
)

// fig1a builds the Figure 1(a) knowledge base (CDDs only).
func fig1a(t testing.TB) *KB {
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
	return MustKB(s, nil, []*logic.CDD{cdd})
}

func TestFixSetValidate(t *testing.T) {
	p := Position{Fact: 1, Arg: 1}
	ok := FixSet{
		{Pos: p, Value: logic.N("x1")},
		{Pos: Position{Fact: 2, Arg: 1}, Value: logic.C("Aspirin")},
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
	// Example 3.2's invalid P′: same position, two values.
	bad := append(ok, Fix{Pos: p, Value: logic.C("Penicillin")})
	if err := bad.Validate(); err == nil {
		t.Error("conflicting fixes accepted")
	}
	// Duplicate identical fixes are fine.
	dup := append(ok, ok[0])
	if err := dup.Validate(); err != nil {
		t.Errorf("duplicate fix rejected: %v", err)
	}
}

func TestApplyExample32(t *testing.T) {
	kb := fig1a(t)
	// P = {(A,2,X1), (A',2,Aspirin)} with A = hasAllergy(John, Aspirin),
	// A' = hasAllergy(Mike, Penicillin).
	fs := FixSet{
		{Pos: Position{Fact: 1, Arg: 1}, Value: logic.N("x1")},
		{Pos: Position{Fact: 2, Arg: 1}, Value: logic.C("Aspirin")},
	}
	fp, err := Apply(kb.Facts, fs)
	if err != nil {
		t.Fatal(err)
	}
	want := store.MustFromAtoms([]logic.Atom{
		logic.NewAtom("prescribed", logic.C("Aspirin"), logic.C("John")),
		logic.NewAtom("hasAllergy", logic.C("John"), logic.N("x1")),
		logic.NewAtom("hasAllergy", logic.C("Mike"), logic.C("Aspirin")),
	})
	if !fp.Equal(want) {
		t.Errorf("apply result:\n%s\nwant:\n%s", fp, want)
	}
	// Original untouched; sizes preserved.
	if kb.Facts.Value(Position{Fact: 1, Arg: 1}) != logic.C("Aspirin") {
		t.Error("Apply mutated input")
	}
	if fp.Len() != kb.Facts.Len() || fp.NumPositions() != kb.Facts.NumPositions() {
		t.Error("|F'| != |F| or pos changed")
	}
}

func TestApplyInPlaceUndo(t *testing.T) {
	kb := fig1a(t)
	orig := kb.Facts.Clone()
	fs := FixSet{
		{Pos: Position{Fact: 0, Arg: 0}, Value: logic.C("Nsaids")},
		{Pos: Position{Fact: 2, Arg: 0}, Value: logic.C("John")},
	}
	undo, err := ApplyInPlace(kb.Facts, fs)
	if err != nil {
		t.Fatal(err)
	}
	if kb.Facts.Value(Position{Fact: 0, Arg: 0}) != logic.C("Nsaids") {
		t.Error("fix not applied")
	}
	if _, err := ApplyInPlace(kb.Facts, undo); err != nil {
		t.Fatal(err)
	}
	if !kb.Facts.Equal(orig) {
		t.Error("undo did not restore store")
	}
}

func TestApplyInPlaceNoopNotInUndo(t *testing.T) {
	kb := fig1a(t)
	fs := FixSet{{Pos: Position{Fact: 0, Arg: 0}, Value: logic.C("Aspirin")}} // same value
	undo, err := ApplyInPlace(kb.Facts, fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(undo) != 0 {
		t.Errorf("noop produced undo entries: %v", undo)
	}
}

func TestApplyRejectsInvalidSet(t *testing.T) {
	kb := fig1a(t)
	p := Position{Fact: 0, Arg: 0}
	bad := FixSet{{Pos: p, Value: logic.C("a")}, {Pos: p, Value: logic.C("b")}}
	if _, err := Apply(kb.Facts, bad); err == nil {
		t.Error("invalid set applied")
	}
	if _, err := ApplyInPlace(kb.Facts, bad); err == nil {
		t.Error("invalid set applied in place")
	}
}

func TestDiffExample33(t *testing.T) {
	kb := fig1a(t)
	fs := FixSet{
		{Pos: Position{Fact: 1, Arg: 1}, Value: logic.N("x1")},
		{Pos: Position{Fact: 2, Arg: 1}, Value: logic.C("Aspirin")},
	}
	fp, err := Apply(kb.Facts, fs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Diff(kb.Facts, fp)
	if err != nil {
		t.Fatal(err)
	}
	if gs, ws := got.Canonical().String(), fs.Canonical().String(); gs != ws {
		t.Errorf("Diff = %s, want %s", gs, ws)
	}
}

func TestDiffErrors(t *testing.T) {
	a := store.MustFromAtoms([]logic.Atom{logic.NewAtom("p", logic.C("x"))})
	b := store.MustFromAtoms([]logic.Atom{
		logic.NewAtom("p", logic.C("x")),
		logic.NewAtom("p", logic.C("y")),
	})
	if _, err := Diff(a, b); err == nil {
		t.Error("size mismatch accepted")
	}
	c := store.MustFromAtoms([]logic.Atom{logic.NewAtom("q", logic.C("x"))})
	if _, err := Diff(a, c); err == nil {
		t.Error("predicate mismatch accepted")
	}
}

func TestMatchByPredicate(t *testing.T) {
	f := store.MustFromAtoms([]logic.Atom{
		logic.NewAtom("p", logic.C("a")),
		logic.NewAtom("p", logic.C("b")),
		logic.NewAtom("q", logic.C("c")),
	})
	// fp permutes the p-atoms and changes one value.
	fp := store.MustFromAtoms([]logic.Atom{
		logic.NewAtom("p", logic.C("z")),
		logic.NewAtom("p", logic.C("a")),
		logic.NewAtom("q", logic.C("c")),
	})
	m, err := MatchByPredicate(f, fp)
	if err != nil {
		t.Fatal(err)
	}
	// Exact matches first: p(a)→p(a) (id 1), q(c)→q(c); p(b)→p(z).
	if m[0] != 1 || m[2] != 2 || m[1] != 0 {
		t.Errorf("match = %v", m)
	}
	diff, err := DiffMatched(f, fp, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(diff) != 1 || diff[0].Value != logic.C("z") {
		t.Errorf("DiffMatched = %v", diff)
	}
	// Unmatchable store.
	bad := store.MustFromAtoms([]logic.Atom{
		logic.NewAtom("r", logic.C("a")),
		logic.NewAtom("r", logic.C("b")),
		logic.NewAtom("r", logic.C("c")),
	})
	if _, err := MatchByPredicate(f, bad); err == nil {
		t.Error("impossible match accepted")
	}
}

func TestFixSetHelpers(t *testing.T) {
	f1 := Fix{Pos: Position{Fact: 0, Arg: 0}, Value: logic.C("a")}
	f2 := Fix{Pos: Position{Fact: 1, Arg: 0}, Value: logic.C("b")}
	fs := FixSet{f2, f1, f1}
	if !fs.Contains(f1) || fs.Contains(Fix{Pos: f1.Pos, Value: logic.C("z")}) {
		t.Error("Contains wrong")
	}
	if got := fs.Without(f1); len(got) != 1 || got[0] != f2 {
		t.Errorf("Without = %v", got)
	}
	if got := fs.Canonical(); len(got) != 2 || got[0] != f1 || got[1] != f2 {
		t.Errorf("Canonical = %v", got)
	}
	if got := fs.Positions(); len(got) != 2 {
		t.Errorf("Positions = %v", got)
	}
	if fs.String() == "" {
		t.Error("empty String")
	}
	if f1.Describe(fig1a(t).Facts) == "" {
		t.Error("empty Describe")
	}
}

// Property: for any valid fix set, Diff(F, Apply(F, P)) applied back to F
// reproduces Apply(F, P) — the reconstruction round trip of §3.
func TestApplyDiffRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := store.New()
		consts := []logic.Term{logic.C("a"), logic.C("b"), logic.C("c")}
		for i := 0; i < 8; i++ {
			s.MustAdd(logic.NewAtom("p", consts[r.Intn(3)], consts[r.Intn(3)]))
		}
		var fs FixSet
		seen := make(map[Position]bool)
		for i := 0; i < 5; i++ {
			p := Position{Fact: store.FactID(r.Intn(s.Len())), Arg: r.Intn(2)}
			if seen[p] {
				continue
			}
			seen[p] = true
			var v logic.Term
			if r.Intn(3) == 0 {
				v = s.NullForPos(p)
			} else {
				v = consts[r.Intn(3)]
			}
			fs = append(fs, Fix{Pos: p, Value: v})
		}
		fp, err := Apply(s, fs)
		if err != nil {
			return false
		}
		d, err := Diff(s, fp)
		if err != nil {
			return false
		}
		fp2, err := Apply(s, d)
		if err != nil {
			return false
		}
		return fp2.Equal(fp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
