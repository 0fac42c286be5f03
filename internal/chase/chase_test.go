package chase

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"kbrepair/internal/homo"
	"kbrepair/internal/logic"
	"kbrepair/internal/store"
)

// fig1b builds the paper's Figure 1(b) knowledge base.
func fig1b(t testing.TB) (*store.Store, []*logic.TGD, []*logic.CDD) {
	t.Helper()
	s := store.MustFromAtoms([]logic.Atom{
		logic.NewAtom("prescribed", logic.C("Aspirin"), logic.C("John")),
		logic.NewAtom("hasAllergy", logic.C("John"), logic.C("Aspirin")),
		logic.NewAtom("hasAllergy", logic.C("Mike"), logic.C("Penicillin")),
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
	return s, tgds, cdds
}

func TestChaseExample21(t *testing.T) {
	s, tgds, _ := fig1b(t)
	res, err := Run(s, NewRules(tgds, nil, s), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Example 2.1: Cl(F') = F' ∪ {prescribed(Nsaids, John)}.
	if res.Store.Len() != s.Len()+1 {
		t.Fatalf("chase size = %d, want %d", res.Store.Len(), s.Len()+1)
	}
	want := logic.NewAtom("prescribed", logic.C("Nsaids"), logic.C("John"))
	if !res.Store.Contains(want) {
		t.Errorf("chase missing %v", want)
	}
	// Base store untouched.
	if s.Len() != 6 {
		t.Error("chase mutated base store")
	}
	// Provenance of the derived fact points at the two body facts.
	d := res.Derived()
	if len(d) != 1 {
		t.Fatalf("derived = %v", d)
	}
	prov := res.Prov[d[0]]
	if prov.Rule != tgds[0] || len(prov.Parents) != 2 {
		t.Errorf("prov = %+v", prov)
	}
	support := res.BaseSupport(d[0])
	if !reflect.DeepEqual(support, []store.FactID{3, 4}) {
		t.Errorf("BaseSupport = %v, want [3 4]", support)
	}
	// Base facts are their own support.
	if got := res.BaseSupport(0); !reflect.DeepEqual(got, []store.FactID{0}) {
		t.Errorf("BaseSupport(base) = %v", got)
	}
}

func TestRestrictedChaseDoesNotRefire(t *testing.T) {
	// p(a) with rule p(X) -> q(X, Z) must derive exactly one q-atom with a
	// fresh null, and a second run over the result must derive nothing.
	s := store.MustFromAtoms([]logic.Atom{logic.NewAtom("p", logic.C("a"))})
	r := logic.MustTGD(
		[]logic.Atom{logic.NewAtom("p", logic.V("X"))},
		[]logic.Atom{logic.NewAtom("q", logic.V("X"), logic.V("Z"))},
	)
	res, err := Run(s, NewRules([]*logic.TGD{r}, nil, s), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Derived()) != 1 {
		t.Fatalf("derived %d facts, want 1", len(res.Derived()))
	}
	q := res.Store.FactRef(res.Derived()[0])
	if q.Pred != "q" || q.Args[0] != logic.C("a") || !q.Args[1].IsNull() {
		t.Errorf("derived %v", q)
	}
	res2, err := Run(res.Store, NewRules([]*logic.TGD{r}, nil, res.Store), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Derived()) != 0 {
		t.Errorf("restricted chase re-fired: %v", res2.Derived())
	}
}

func TestChaseHeadAlreadySatisfied(t *testing.T) {
	// Head satisfied by existing fact: no firing at all.
	s := store.MustFromAtoms([]logic.Atom{
		logic.NewAtom("p", logic.C("a")),
		logic.NewAtom("q", logic.C("a"), logic.C("b")),
	})
	r := logic.MustTGD(
		[]logic.Atom{logic.NewAtom("p", logic.V("X"))},
		[]logic.Atom{logic.NewAtom("q", logic.V("X"), logic.V("Z"))},
	)
	res, err := Run(s, NewRules([]*logic.TGD{r}, nil, s), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Derived()) != 0 {
		t.Errorf("fired although satisfied: %v", res.Derived())
	}
}

func TestChaseMultiRound(t *testing.T) {
	// Chain: p -> q -> r, requires two rounds.
	s := store.MustFromAtoms([]logic.Atom{logic.NewAtom("p", logic.C("a"))})
	rules := []*logic.TGD{
		logic.MustTGD(
			[]logic.Atom{logic.NewAtom("p", logic.V("X"))},
			[]logic.Atom{logic.NewAtom("q", logic.V("X"))},
		),
		logic.MustTGD(
			[]logic.Atom{logic.NewAtom("q", logic.V("X"))},
			[]logic.Atom{logic.NewAtom("r", logic.V("X"))},
		),
	}
	res, err := Run(s, NewRules(rules, nil, s), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Store.Contains(logic.NewAtom("r", logic.C("a"))) {
		t.Error("transitive derivation missing")
	}
	// Transitive support reaches the base fact.
	var rid store.FactID = -1
	for _, id := range res.Derived() {
		if res.Store.FactRef(id).Pred == "r" {
			rid = id
		}
	}
	if got := res.BaseSupport(rid); !reflect.DeepEqual(got, []store.FactID{0}) {
		t.Errorf("transitive support = %v", got)
	}
}

func TestChaseMultiAtomHead(t *testing.T) {
	s := store.MustFromAtoms([]logic.Atom{
		logic.NewAtom("isCultivatedOn", logic.C("wheat1"), logic.C("soil2")),
		logic.NewAtom("durum_wheat", logic.C("wheat1")),
		logic.NewAtom("soil", logic.C("soil2")),
	})
	r := logic.MustTGD(
		[]logic.Atom{
			logic.NewAtom("isCultivatedOn", logic.V("X1"), logic.V("X2")),
			logic.NewAtom("durum_wheat", logic.V("X1")),
			logic.NewAtom("soil", logic.V("X2")),
		},
		[]logic.Atom{
			logic.NewAtom("hasPrecedent", logic.V("X2"), logic.V("X3")),
			logic.NewAtom("soybean", logic.V("X3")),
		},
	)
	res, err := Run(s, NewRules([]*logic.TGD{r}, nil, s), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Derived()) != 2 {
		t.Fatalf("derived %d, want 2", len(res.Derived()))
	}
	// Both head atoms share the same fresh null.
	var hp, sb logic.Atom
	for _, id := range res.Derived() {
		a := res.Store.FactRef(id)
		switch a.Pred {
		case "hasPrecedent":
			hp = a
		case "soybean":
			sb = a
		}
	}
	if hp.Args[1] != sb.Args[0] || !hp.Args[1].IsNull() {
		t.Errorf("existential sharing broken: %v vs %v", hp, sb)
	}
}

func TestChaseBudget(t *testing.T) {
	s := store.MustFromAtoms([]logic.Atom{logic.NewAtom("p", logic.C("a"), logic.C("b"))})
	// Non-terminating rule (not weakly acyclic): p(X,Y) -> p(Y,Z).
	r := logic.MustTGD(
		[]logic.Atom{logic.NewAtom("p", logic.V("X"), logic.V("Y"))},
		[]logic.Atom{logic.NewAtom("p", logic.V("Y"), logic.V("Z"))},
	)
	_, err := Run(s, NewRules([]*logic.TGD{r}, nil, s), Options{MaxDerived: 50})
	if !errors.Is(err, ErrBudget) {
		t.Errorf("err = %v, want budget error", err)
	}
}

func TestIsConsistent(t *testing.T) {
	s, tgds, cdds := fig1b(t)
	rs := NewRules(tgds, cdds, s)
	for name, check := range map[string]func(*store.Store, *Rules, Options) (bool, error){
		"naive": IsConsistentNaive,
		"opt":   IsConsistentOpt,
	} {
		ok, err := check(s, rs, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ok {
			t.Errorf("%s: inconsistent KB reported consistent", name)
		}
	}
	// A consistent variant: fix both conflicts.
	s2 := s.Clone()
	s2.MustSetValue(store.Position{Fact: 1, Arg: 0}, logic.C("Mike")) // hasAllergy(Mike, Aspirin)
	s2.MustSetValue(store.Position{Fact: 3, Arg: 0}, logic.C("Mary")) // hasPain(Mary, Migraine): TGD now prescribes Nsaids to Mary — no incompatibility with John's Aspirin
	for name, check := range map[string]func(*store.Store, *Rules, Options) (bool, error){
		"naive": IsConsistentNaive,
		"opt":   IsConsistentOpt,
	} {
		ok, err := check(s2, rs, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !ok {
			t.Errorf("%s: consistent KB reported inconsistent", name)
		}
	}
}

func TestConsistencyChecksAgreeOnChaseOnlyConflict(t *testing.T) {
	// KB consistent at base level but inconsistent after the chase: the
	// second CDD of Figure 1(b) with no direct violation.
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
	okN, err := IsConsistentNaive(s, NewRules(tgds, cdds, s), Options{})
	if err != nil {
		t.Fatal(err)
	}
	okO, err := IsConsistentOpt(s, NewRules(tgds, cdds, s), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if okN || okO {
		t.Errorf("naive=%v opt=%v, want both false", okN, okO)
	}
}

func TestCompileBottom(t *testing.T) {
	cdds := []*logic.CDD{logic.MustCDD([]logic.Atom{
		logic.NewAtom("p", logic.V("X"), logic.V("X")),
	})}
	s := store.MustFromAtoms([]logic.Atom{logic.NewAtom("p", logic.C("a"), logic.C("a"))})
	rs := NewRules(nil, cdds, s)
	bottom := rs.CDD[0].Bottom
	if len(rs.check.rules) != 1 || rs.check.rules[0].tgd != bottom || bottom.Head[0].Pred != BottomPred {
		t.Fatalf("⊥ rows = %v, want the one ⊥-rule %v", rs.check.rules, bottom)
	}
	if err := bottom.Validate(); err != nil {
		t.Errorf("compiled rule invalid: %v", err)
	}
	// The ⊥-rule searches with the CDD's own plans.
	if r := rs.check.rules[0]; r.body != rs.CDD[0].Body || r.pinned[0] != rs.CDD[0].Pinned[0] {
		t.Error("⊥ row does not share the CDD's body and pinned plans")
	}
	if ok, err := IsConsistentOpt(s, rs, Options{}); ok || err != nil {
		t.Errorf("IsConsistentOpt = %v, %v on a violating store, want false, nil", ok, err)
	}
}

func TestAnswers(t *testing.T) {
	s, tgds, _ := fig1b(t)
	// Q(W) :- prescribed(W, John): certain answers must include the derived
	// Nsaids prescription.
	body := []logic.Atom{logic.NewAtom("prescribed", logic.V("W"), logic.C("John"))}
	ans, err := Answers(s, NewRules(tgds, nil, s), body, []logic.Term{logic.V("W")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool)
	for _, tuple := range ans {
		got[tuple[0].Name] = true
	}
	if !got["Aspirin"] || !got["Nsaids"] || len(got) != 2 {
		t.Errorf("answers = %v", got)
	}
}

func TestAnswersFilterNulls(t *testing.T) {
	// Rule introduces a null; the certain-answer filter must drop it.
	s := store.MustFromAtoms([]logic.Atom{logic.NewAtom("p", logic.C("a"))})
	tg := logic.MustTGD(
		[]logic.Atom{logic.NewAtom("p", logic.V("X"))},
		[]logic.Atom{logic.NewAtom("q", logic.V("X"), logic.V("Z"))},
	)
	ans, err := Answers(s, NewRules([]*logic.TGD{tg}, nil, s),
		[]logic.Atom{logic.NewAtom("q", logic.V("X"), logic.V("Y"))},
		[]logic.Term{logic.V("Y")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 0 {
		t.Errorf("null answers leaked: %v", ans)
	}
}

func TestChaseDeterministicOnCopies(t *testing.T) {
	s, tgds, _ := fig1b(t)
	rs := NewRules(tgds, nil, s)
	r1, err := Run(s, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(s.Clone(), rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Store.Len() != r2.Store.Len() {
		t.Errorf("chase sizes differ: %d vs %d", r1.Store.Len(), r2.Store.Len())
	}
}

func TestBottomOptimizationStopsEarly(t *testing.T) {
	// A KB where the first derived fact already triggers ⊥ but many more
	// TGD firings would be possible: the optimized check must derive far
	// fewer facts than the naive full chase.
	atoms := []logic.Atom{
		logic.NewAtom("seed", logic.C("a0")),
		logic.NewAtom("bad", logic.C("a0")),
	}
	s := store.MustFromAtoms(atoms)
	var tgds []*logic.TGD
	// A chain seed -> s1 -> s2 -> ... -> s30 of unary derivations.
	prev := "seed"
	for i := 1; i <= 30; i++ {
		cur := "s" + string(rune('0'+i/10)) + string(rune('0'+i%10))
		tgds = append(tgds, logic.MustTGD(
			[]logic.Atom{logic.NewAtom(prev, logic.V("X"))},
			[]logic.Atom{logic.NewAtom(cur, logic.V("X"))},
		))
		prev = cur
	}
	cdds := []*logic.CDD{logic.MustCDD([]logic.Atom{
		logic.NewAtom("seed", logic.V("X")),
		logic.NewAtom("bad", logic.V("X")),
	})}
	ok, err := IsConsistentOpt(s, NewRules(tgds, cdds, s), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("optimized check missed base-level violation")
	}
}

func TestExistsSeededViaChaseHeads(t *testing.T) {
	// Regression companion for fire(): seeded existence must respect the
	// frontier bindings (not just any head match).
	s := store.MustFromAtoms([]logic.Atom{
		logic.NewAtom("q", logic.C("b"), logic.C("z")),
	})
	head := []logic.Atom{logic.NewAtom("q", logic.V("X"), logic.V("Z"))}
	if homo.ExistsSeeded(s, head, logic.Subst{logic.V("X"): logic.C("a")}) {
		t.Error("seeded existence ignored binding")
	}
	if !homo.ExistsSeeded(s, head, logic.Subst{logic.V("X"): logic.C("b")}) {
		t.Error("seeded existence missed match")
	}
}

func TestExplain(t *testing.T) {
	// Chain p -> q -> r: explaining r shows the full derivation.
	s := store.MustFromAtoms([]logic.Atom{logic.NewAtom("p", logic.C("a"))})
	rules := []*logic.TGD{
		{Label: "step1",
			Body: []logic.Atom{logic.NewAtom("p", logic.V("X"))},
			Head: []logic.Atom{logic.NewAtom("q", logic.V("X"))}},
		{Label: "step2",
			Body: []logic.Atom{logic.NewAtom("q", logic.V("X"))},
			Head: []logic.Atom{logic.NewAtom("r", logic.V("X"))}},
	}
	res, err := Run(s, NewRules(rules, nil, s), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var rid store.FactID = -1
	for _, id := range res.Derived() {
		if res.Store.FactRef(id).Pred == "r" {
			rid = id
		}
	}
	out := res.Explain(rid)
	for _, want := range []string{"r(a)", "step2", "q(a)", "step1", "p(a)", "base fact"} {
		if !strings.Contains(out, want) {
			t.Errorf("explanation missing %q:\n%s", want, out)
		}
	}
	// Base facts explain as themselves.
	if !strings.Contains(res.Explain(0), "base fact #0") {
		t.Error("base explanation wrong")
	}
	// Unlabeled rules fall back to the rule text.
	rules[0].Label = ""
	res2, err := Run(s, NewRules(rules, nil, s), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var qid store.FactID = -1
	for _, id := range res2.Derived() {
		if res2.Store.FactRef(id).Pred == "q" {
			qid = id
		}
	}
	if !strings.Contains(res2.Explain(qid), "[tgd]") {
		t.Error("unlabeled rule not rendered")
	}
}

// sameStore fails the test unless got holds exactly want's facts and every
// index list — per predicate and per (predicate, argument, value) — in the
// same order: what an in-place check must leave behind.
func sameStore(t *testing.T, exit string, got, want *store.Store) {
	t.Helper()
	if err := got.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", exit, err)
	}
	if !got.Equal(want) {
		t.Fatalf("%s: facts changed:\n%s\nwant\n%s", exit, got, want)
	}
	if !reflect.DeepEqual(got.Predicates(), want.Predicates()) {
		t.Fatalf("%s: predicates %v, want %v", exit, got.Predicates(), want.Predicates())
	}
	for _, id := range want.IDs() {
		a := want.FactRef(id)
		if !reflect.DeepEqual(got.ByPredicate(a.Pred), want.ByPredicate(a.Pred)) {
			t.Fatalf("%s: byPred[%s] = %v, want %v", exit, a.Pred, got.ByPredicate(a.Pred), want.ByPredicate(a.Pred))
		}
		for j, v := range a.Args {
			if g, w := got.Candidates(a.Pred, j, v), want.Candidates(a.Pred, j, v); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: index[%s,%d,%s] = %v, want %v", exit, a.Pred, j, v, g, w)
			}
			if g, w := got.ActiveDomain(a.Pred, j), want.ActiveDomain(a.Pred, j); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: adom[%s,%d] = %v, want %v", exit, a.Pred, j, g, w)
			}
		}
	}
}

// TestIsConsistentOptRestoresBase: the in-place check chases its argument
// and truncates it back on every exit — consistent, ⊥ abort and ErrBudget.
func TestIsConsistentOptRestoresBase(t *testing.T) {
	s, tgds, cdds := fig1b(t)
	consistent := s.Clone()
	consistent.MustSetValue(store.Position{Fact: 1, Arg: 0}, logic.C("Mike"))
	consistent.MustSetValue(store.Position{Fact: 3, Arg: 0}, logic.C("Mary"))
	// Chase-only conflict: no CDD is violated by the base facts, so the
	// check must chase until ⊥ is derived.
	bottom := store.MustFromAtoms([]logic.Atom{
		logic.NewAtom("prescribed", logic.C("Aspirin"), logic.C("John")),
		logic.NewAtom("hasPain", logic.C("John"), logic.C("Migraine")),
		logic.NewAtom("isPainKillerFor", logic.C("Nsaids"), logic.C("Migraine")),
		logic.NewAtom("incompatible", logic.C("Aspirin"), logic.C("Nsaids")),
	})
	// A non-terminating relevant rule under a small budget.
	loop := logic.MustTGD(
		[]logic.Atom{logic.NewAtom("p", logic.V("X"), logic.V("Y"))},
		[]logic.Atom{logic.NewAtom("p", logic.V("Y"), logic.V("Z"))},
	)
	loopCDD := logic.MustCDD([]logic.Atom{logic.NewAtom("p", logic.V("X"), logic.V("X"))})
	budget := store.MustFromAtoms([]logic.Atom{
		logic.NewAtom("p", logic.C("a"), logic.C("b")),
		logic.NewAtom("p", logic.C("b"), logic.C("c")),
	})
	cases := []struct {
		exit    string
		s       *store.Store
		tgds    []*logic.TGD
		cdds    []*logic.CDD
		opts    Options
		want    bool
		wantErr error
	}{
		{"consistent", consistent, tgds, cdds, Options{}, true, nil},
		{"bottom-abort", bottom, tgds, cdds, Options{}, false, nil},
		{"budget", budget, []*logic.TGD{loop}, []*logic.CDD{loopCDD}, Options{MaxDerived: 20}, false, ErrBudget},
	}
	for _, c := range cases {
		before := c.s.Clone()
		rs := NewRules(c.tgds, c.cdds, c.s)
		ok, err := IsConsistentOpt(c.s, rs, c.opts)
		if !errors.Is(err, c.wantErr) || (err == nil && ok != c.want) {
			t.Fatalf("%s: IsConsistentOpt = %v, %v; want %v, %v", c.exit, ok, err, c.want, c.wantErr)
		}
		sameStore(t, c.exit, c.s, before)
		// A second check on the restored store agrees with the first.
		if ok2, err2 := IsConsistentOpt(c.s, rs, c.opts); ok2 != ok || !errors.Is(err2, c.wantErr) {
			t.Fatalf("%s: repeat check = %v, %v; first was %v, %v", c.exit, ok2, err2, ok, err)
		}
	}
}
