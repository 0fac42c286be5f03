package store

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"kbrepair/internal/logic"
)

func medStore(t testing.TB) *Store {
	t.Helper()
	return MustFromAtoms([]logic.Atom{
		logic.NewAtom("prescribed", logic.C("Aspirin"), logic.C("John")),
		logic.NewAtom("hasAllergy", logic.C("John"), logic.C("Aspirin")),
		logic.NewAtom("hasAllergy", logic.C("Mike"), logic.C("Penicillin")),
	})
}

func TestAddAndLookup(t *testing.T) {
	s := medStore(t)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	a := s.Fact(0)
	if a.Pred != "prescribed" || a.Args[0] != logic.C("Aspirin") {
		t.Errorf("Fact(0) = %v", a)
	}
	if !s.Contains(logic.NewAtom("hasAllergy", logic.C("Mike"), logic.C("Penicillin"))) {
		t.Error("Contains missed existing fact")
	}
	if s.Contains(logic.NewAtom("hasAllergy", logic.C("Mike"), logic.C("Aspirin"))) {
		t.Error("Contains found absent fact")
	}
	if got := s.ByPredicate("hasAllergy"); len(got) != 2 {
		t.Errorf("ByPredicate = %v", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAddRejectsNonGround(t *testing.T) {
	s := New()
	if _, err := s.Add(logic.NewAtom("p", logic.V("X"))); err == nil {
		t.Error("non-ground atom accepted")
	}
	// Nulls are fine.
	if _, err := s.Add(logic.NewAtom("p", logic.N("n1"))); err != nil {
		t.Errorf("null-argument fact rejected: %v", err)
	}
}

func TestDuplicateFactsAllowed(t *testing.T) {
	s := New()
	a := logic.NewAtom("p", logic.C("a"))
	id1 := s.MustAdd(a)
	id2 := s.MustAdd(a)
	if id1 == id2 {
		t.Error("duplicate got same id")
	}
	if got := s.FindExact(a); len(got) != 2 {
		t.Errorf("FindExact = %v", got)
	}
}

func TestSetValueMaintainsIndexes(t *testing.T) {
	s := medStore(t)
	p := Position{Fact: 1, Arg: 1} // hasAllergy(John, Aspirin) @ 2nd arg
	prev, err := s.SetValue(p, logic.N("n1"))
	if err != nil {
		t.Fatal(err)
	}
	if prev != logic.C("Aspirin") {
		t.Errorf("prev = %v", prev)
	}
	if s.Value(p) != logic.N("n1") {
		t.Errorf("Value = %v", s.Value(p))
	}
	if s.Contains(logic.NewAtom("hasAllergy", logic.C("John"), logic.C("Aspirin"))) {
		t.Error("old atom still visible")
	}
	if !s.Contains(logic.NewAtom("hasAllergy", logic.C("John"), logic.N("n1"))) {
		t.Error("new atom not visible")
	}
	if len(s.Candidates("hasAllergy", 1, logic.C("Aspirin"))) != 0 {
		t.Error("stale index entry")
	}
	if len(s.Candidates("hasAllergy", 1, logic.N("n1"))) != 1 {
		t.Error("new index entry missing")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Undo restores everything.
	if _, err := s.SetValue(p, prev); err != nil {
		t.Fatal(err)
	}
	if !s.Contains(logic.NewAtom("hasAllergy", logic.C("John"), logic.C("Aspirin"))) {
		t.Error("undo failed")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSetValueNoopAndErrors(t *testing.T) {
	s := medStore(t)
	p := Position{Fact: 0, Arg: 0}
	prev, err := s.SetValue(p, logic.C("Aspirin"))
	if err != nil || prev != logic.C("Aspirin") {
		t.Errorf("noop SetValue: prev=%v err=%v", prev, err)
	}
	if _, err := s.SetValue(p, logic.V("X")); err == nil {
		t.Error("variable value accepted")
	}
	if _, err := s.SetValue(Position{Fact: 0, Arg: 9}, logic.C("z")); err == nil {
		t.Error("out-of-range arg accepted")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestActiveDomain(t *testing.T) {
	s := medStore(t)
	ad := s.ActiveDomain("hasAllergy", 1)
	want := []logic.Term{logic.C("Aspirin"), logic.C("Penicillin")}
	if !reflect.DeepEqual(ad, want) {
		t.Errorf("ActiveDomain = %v, want %v", ad, want)
	}
	if s.ActiveDomainSize("hasAllergy", 0) != 2 {
		t.Errorf("ActiveDomainSize = %d", s.ActiveDomainSize("hasAllergy", 0))
	}
	if !s.InActiveDomain("prescribed", 1, logic.C("John")) {
		t.Error("InActiveDomain missed John")
	}
	if s.InActiveDomain("prescribed", 1, logic.C("Mike")) {
		t.Error("InActiveDomain found absent value")
	}
	// Counting: the same value twice must survive one removal.
	s2 := MustFromAtoms([]logic.Atom{
		logic.NewAtom("p", logic.C("a")),
		logic.NewAtom("p", logic.C("a")),
	})
	s2.MustSetValue(Position{Fact: 0, Arg: 0}, logic.C("b"))
	if !s2.InActiveDomain("p", 0, logic.C("a")) {
		t.Error("adom count dropped to zero too early")
	}
	s2.MustSetValue(Position{Fact: 1, Arg: 0}, logic.C("b"))
	if s2.InActiveDomain("p", 0, logic.C("a")) {
		t.Error("adom kept stale value")
	}
}

func TestPositionsAndValues(t *testing.T) {
	s := medStore(t)
	ps := s.Positions()
	if len(ps) != 6 {
		t.Fatalf("Positions len = %d, want 6", len(ps))
	}
	if s.NumPositions() != 6 {
		t.Errorf("NumPositions = %d", s.NumPositions())
	}
	if s.Value(Position{Fact: 2, Arg: 0}) != logic.C("Mike") {
		t.Error("Value wrong")
	}
	if s.Arity(0) != 2 {
		t.Error("Arity wrong")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := medStore(t)
	c := s.Clone()
	if !s.Equal(c) || !s.EqualAsSet(c) {
		t.Fatal("clone not equal")
	}
	c.MustSetValue(Position{Fact: 0, Arg: 0}, logic.C("Nsaids"))
	if s.Equal(c) {
		t.Error("Equal missed difference")
	}
	if s.Value(Position{Fact: 0, Arg: 0}) != logic.C("Aspirin") {
		t.Error("clone mutation leaked into original")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEqualAsSetIgnoresOrder(t *testing.T) {
	a := MustFromAtoms([]logic.Atom{
		logic.NewAtom("p", logic.C("a")),
		logic.NewAtom("q", logic.C("b")),
	})
	b := MustFromAtoms([]logic.Atom{
		logic.NewAtom("q", logic.C("b")),
		logic.NewAtom("p", logic.C("a")),
	})
	if a.Equal(b) {
		t.Error("Equal should be order sensitive")
	}
	if !a.EqualAsSet(b) {
		t.Error("EqualAsSet should be order insensitive")
	}
	c := MustFromAtoms([]logic.Atom{
		logic.NewAtom("p", logic.C("a")),
		logic.NewAtom("p", logic.C("a")),
	})
	d := MustFromAtoms([]logic.Atom{
		logic.NewAtom("p", logic.C("a")),
		logic.NewAtom("q", logic.C("b")),
	})
	if c.EqualAsSet(d) {
		t.Error("EqualAsSet ignored multiplicity")
	}
}

func TestPredicatesAndString(t *testing.T) {
	s := medStore(t)
	if got := s.Predicates(); !reflect.DeepEqual(got, []string{"hasAllergy", "prescribed"}) {
		t.Errorf("Predicates = %v", got)
	}
	str := s.String()
	if !strings.Contains(str, "prescribed(Aspirin, John).") {
		t.Errorf("String = %q", str)
	}
}

// Property: a random sequence of SetValue operations keeps all indexes
// consistent, and undoing them in reverse restores the original store.
func TestRandomMutationInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := New()
		consts := []logic.Term{logic.C("a"), logic.C("b"), logic.C("c"), logic.C("d")}
		for i := 0; i < 12; i++ {
			n := 1 + r.Intn(3)
			args := make([]logic.Term, n)
			for j := range args {
				args[j] = consts[r.Intn(len(consts))]
			}
			s.MustAdd(logic.NewAtom([]string{"p", "q"}[r.Intn(2)], args...))
		}
		orig := s.Clone()
		type undo struct {
			p Position
			t logic.Term
		}
		var undos []undo
		for i := 0; i < 30; i++ {
			id := FactID(r.Intn(s.Len()))
			p := Position{Fact: id, Arg: r.Intn(s.Arity(id))}
			var v logic.Term
			if r.Intn(4) == 0 {
				v = s.NullForPos(p)
			} else {
				v = consts[r.Intn(len(consts))]
			}
			prev := s.MustSetValue(p, v)
			undos = append(undos, undo{p, prev})
			if err := s.CheckInvariants(); err != nil {
				t.Logf("invariant broken: %v", err)
				return false
			}
		}
		for i := len(undos) - 1; i >= 0; i-- {
			s.MustSetValue(undos[i].p, undos[i].t)
		}
		return s.Equal(orig) && s.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestAccessors(t *testing.T) {
	s := medStore(t)
	// FactRef returns the live atom.
	a := s.FactRef(0)
	if a.Pred != "prescribed" {
		t.Errorf("FactRef = %v", a)
	}
	if got := s.CandidatesByPred("hasAllergy"); len(got) != 2 {
		t.Errorf("CandidatesByPred = %v", got)
	}
	if !s.OccursAnywhere(logic.C("John")) || s.OccursAnywhere(logic.C("Nobody")) {
		t.Error("OccursAnywhere wrong")
	}
	// John appears twice: prescribed@2 and hasAllergy@1.
	if s.OccurrenceCount(logic.C("John")) != 2 {
		t.Errorf("OccurrenceCount(John) = %d", s.OccurrenceCount(logic.C("John")))
	}
	if got := s.IDs(); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Errorf("IDs = %v", got)
	}
	atoms := s.Atoms()
	if len(atoms) != 3 || !atoms[0].Equal(s.FactRef(0)) {
		t.Errorf("Atoms = %v", atoms)
	}
	// Atoms copies: mutating the copy must not touch the store.
	atoms[0].Args[0] = logic.C("XXX")
	if s.FactRef(0).Args[0] == logic.C("XXX") {
		t.Error("Atoms shares storage")
	}
}

// TestNullForCoord pins the coordinate-null contract: labels are a pure
// function of the firing coordinate, and are deterministically escaped when
// the store already holds the label.
func TestNullForCoord(t *testing.T) {
	s := New()
	n := s.NullForCoord(2, 0, 17, 1)
	if n != logic.N("n2r0t17x1") {
		t.Fatalf("NullForCoord = %v, want n2r0t17x1", n)
	}
	if s.NullForCoord(2, 0, 17, 1) != n {
		t.Error("NullForCoord not idempotent for the same coordinate")
	}
	s.MustAdd(logic.NewAtom("p", n))
	// An occupied label escapes deterministically: c1, then c2.
	if esc := s.NullForCoord(2, 0, 17, 1); esc != logic.N("n2r0t17x1c1") {
		t.Errorf("escape = %v, want n2r0t17x1c1", esc)
	}
	s.MustAdd(logic.NewAtom("p", logic.N("n2r0t17x1c1")))
	if esc := s.NullForCoord(2, 0, 17, 1); esc != logic.N("n2r0t17x1c2") {
		t.Errorf("second escape = %v, want n2r0t17x1c2", esc)
	}
	// Distinct coordinates stay distinct.
	if s.NullForCoord(2, 0, 17, 0) == n || s.NullForCoord(3, 0, 17, 1) == n {
		t.Error("distinct coordinates collided")
	}
}

// TestNullForPos pins the position-null contract: the label is
// "f<fact>a<arg>", a pure function of the position and the store's
// contents, escaped with c1, c2, … when the store already holds it.
func TestNullForPos(t *testing.T) {
	s := medStore(t)
	p := Position{Fact: 1, Arg: 0}
	n := s.NullForPos(p)
	if n != logic.N("f1a0") {
		t.Fatalf("NullForPos = %v, want f1a0", n)
	}
	if s.NullForPos(p) != n || s.Clone().NullForPos(p) != n {
		t.Error("NullForPos not a function of position and contents")
	}
	s.MustSetValue(p, n)
	if esc := s.NullForPos(p); esc != logic.N("f1a0c1") {
		t.Errorf("escape = %v, want f1a0c1", esc)
	}
	s.MustSetValue(Position{Fact: 0, Arg: 0}, logic.N("f1a0c1"))
	if esc := s.NullForPos(p); esc != logic.N("f1a0c2") {
		t.Errorf("second escape = %v, want f1a0c2", esc)
	}
	if s.NullForPos(Position{Fact: 10, Arg: 1}) == s.NullForPos(Position{Fact: 1, Arg: 1}) {
		t.Error("distinct positions collided")
	}
}

func TestAddBatch(t *testing.T) {
	s := New()
	s.MustAdd(logic.NewAtom("p", logic.C("a")))
	ids, err := s.AddBatch([]logic.Atom{
		logic.NewAtom("q", logic.C("a"), logic.C("b")),
		logic.NewAtom("r", logic.C("b")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("AddBatch ids = %v, want [1 2]", ids)
	}
	if !s.Contains(logic.NewAtom("q", logic.C("a"), logic.C("b"))) || !s.Contains(logic.NewAtom("r", logic.C("b"))) {
		t.Error("batched atoms missing")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Errorf("invariants after AddBatch: %v", err)
	}
	// A non-ground atom anywhere in the batch rejects the whole batch.
	if _, err := s.AddBatch([]logic.Atom{
		logic.NewAtom("ok", logic.C("x")),
		logic.NewAtom("bad", logic.V("Z")),
	}); err == nil {
		t.Fatal("AddBatch accepted non-ground atom")
	}
	if s.Len() != 3 {
		t.Errorf("failed batch partially applied: len = %d, want 3", s.Len())
	}
	// Empty batch is a no-op.
	if ids, err := s.AddBatch(nil); err != nil || len(ids) != 0 {
		t.Errorf("empty batch = (%v, %v)", ids, err)
	}
}

func TestEqualUpToNullRenaming(t *testing.T) {
	a := MustFromAtoms([]logic.Atom{
		logic.NewAtom("p", logic.C("k"), logic.N("x1")),
		logic.NewAtom("q", logic.N("x1")),
	})
	b := MustFromAtoms([]logic.Atom{
		logic.NewAtom("p", logic.C("k"), logic.N("y9")),
		logic.NewAtom("q", logic.N("y9")),
	})
	if !a.EqualUpToNullRenaming(b) {
		t.Error("isomorphic stores reported different")
	}
	// Shared null split into two distinct ones: NOT isomorphic.
	c := MustFromAtoms([]logic.Atom{
		logic.NewAtom("p", logic.C("k"), logic.N("y1")),
		logic.NewAtom("q", logic.N("y2")),
	})
	if a.EqualUpToNullRenaming(c) {
		t.Error("non-injective renaming accepted")
	}
	// Two distinct nulls merged into one: also NOT isomorphic.
	if c.EqualUpToNullRenaming(a) {
		t.Error("merging renaming accepted")
	}
	// Null vs constant mismatch.
	d := MustFromAtoms([]logic.Atom{
		logic.NewAtom("p", logic.C("k"), logic.C("x1")),
		logic.NewAtom("q", logic.C("x1")),
	})
	if a.EqualUpToNullRenaming(d) {
		t.Error("null/constant confusion")
	}
	// Size / predicate mismatches.
	e := MustFromAtoms([]logic.Atom{logic.NewAtom("p", logic.C("k"), logic.N("z"))})
	if a.EqualUpToNullRenaming(e) {
		t.Error("size mismatch accepted")
	}
	// Constant mismatch.
	f := MustFromAtoms([]logic.Atom{
		logic.NewAtom("p", logic.C("OTHER"), logic.N("x1")),
		logic.NewAtom("q", logic.N("x1")),
	})
	if a.EqualUpToNullRenaming(f) {
		t.Error("constant mismatch accepted")
	}
}

func TestMustPanicsOnError(t *testing.T) {
	s := New()
	assertPanics := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	assertPanics("MustAdd", func() { s.MustAdd(logic.NewAtom("p", logic.V("X"))) })
	s.MustAdd(logic.NewAtom("p", logic.C("a")))
	assertPanics("MustSetValue", func() { s.MustSetValue(Position{Fact: 0, Arg: 5}, logic.C("b")) })
	assertPanics("MustFromAtoms", func() { MustFromAtoms([]logic.Atom{logic.NewAtom("p", logic.V("X"))}) })
}
