package parser

import (
	"strings"
	"testing"

	"kbrepair/internal/logic"
	"kbrepair/internal/store"
)

const fig1bText = `
# Figure 1(b) of the paper
prescribed(Aspirin, John).
hasAllergy(John, Aspirin).
hasAllergy(Mike, Penicillin).
hasPain(John, Migraine).
isPainKillerFor(Nsaids, Migraine).
incompatible(Aspirin, Nsaids).

[tgd] isPainKillerFor(X, Y), hasPain(Z, Y) -> prescribed(X, Z).
[cdd] prescribed(X, Y), hasAllergy(Y, X) -> !.
[cdd] prescribed(X, Z), prescribed(Y, Z), incompatible(X, Y) -> !.
`

func TestParseFig1b(t *testing.T) {
	doc, err := Parse(fig1bText)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Facts) != 6 || len(doc.TGDs) != 1 || len(doc.CDDs) != 2 {
		t.Fatalf("parsed %d facts, %d tgds, %d cdds", len(doc.Facts), len(doc.TGDs), len(doc.CDDs))
	}
	// Facts keep uppercase identifiers as constants.
	if !doc.Facts[0].Equal(logic.NewAtom("prescribed", logic.C("Aspirin"), logic.C("John"))) {
		t.Errorf("fact 0 = %v", doc.Facts[0])
	}
	// Rules turn uppercase identifiers into variables.
	tgd := doc.TGDs[0]
	if tgd.Body[0].Args[0] != logic.V("X") {
		t.Errorf("tgd body var = %v", tgd.Body[0].Args[0])
	}
	if len(doc.CDDs[1].Body) != 3 {
		t.Errorf("cdd 1 body = %v", doc.CDDs[1].Body)
	}
	s, err := doc.Store()
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 6 {
		t.Errorf("store len = %d", s.Len())
	}
}

func TestParseNulls(t *testing.T) {
	doc, err := Parse(`hasAllergy(John, _:x1).`)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Facts[0].Args[1] != logic.N("x1") {
		t.Errorf("null arg = %v", doc.Facts[0].Args[1])
	}
	// Nulls are rejected inside rules.
	if _, err := Parse(`[cdd] p(_:x1) -> !.`); err == nil {
		t.Error("null in rule accepted")
	}
}

// TestParseNullReservation: nulls the store names for positions must not
// collide with parsed nulls that already carry those labels.
func TestParseNullReservation(t *testing.T) {
	doc, err := Parse(`p(_:f0a0). q(_:f1a0, _:f0a0c1).`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := doc.Store()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.Positions() {
		if n := s.NullForPos(p); s.OccursAnywhere(n) {
			t.Errorf("NullForPos(%s) = %v collides with a parsed null", p, n)
		}
	}
	if n := s.NullForPos(store.Position{Fact: 0, Arg: 0}); n != logic.N("f0a0c2") {
		t.Errorf("NullForPos(#0@0) = %v, want f0a0c2", n)
	}
}

func TestParseQuotedConstants(t *testing.T) {
	doc, err := Parse(`isDeferredTo(Mike, "12/10/2015").
[cdd] isUrgent(X, Y, Z), isDeferredTo(X, W) -> !.
[cdd] p(X, "John") -> !.`)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Facts[0].Args[1] != logic.C("12/10/2015") {
		t.Errorf("quoted constant = %v", doc.Facts[0].Args[1])
	}
	// Quoted uppercase string in a rule stays a constant.
	if doc.CDDs[1].Body[0].Args[1] != logic.C("John") {
		t.Errorf("rule constant = %v", doc.CDDs[1].Body[0].Args[1])
	}
}

func TestParseEqualities(t *testing.T) {
	doc, err := Parse(`[cdd] p(X, Y), q(Z), X = Z -> !.`)
	if err != nil {
		t.Fatal(err)
	}
	body := doc.CDDs[0].Body
	// X and Z collapse into one variable.
	if body[0].Args[0] != body[1].Args[0] {
		t.Errorf("equality not normalized: %v vs %v", body[0].Args[0], body[1].Args[0])
	}
	// Variable = constant.
	doc, err = Parse(`[cdd] p(X, X), X = a -> !.`)
	if err != nil {
		t.Fatal(err)
	}
	if doc.CDDs[0].Body[0].Args[0] != logic.C("a") {
		t.Errorf("var=const not substituted: %v", doc.CDDs[0].Body[0])
	}
	// Distinct constants: unsatisfiable.
	if _, err := Parse(`[cdd] p(X), a = b -> !.`); err == nil {
		t.Error("unsatisfiable equality accepted")
	}
	// Chained equalities.
	doc, err = Parse(`[cdd] p(X, Y, Z), X = Y, Y = Z -> !.`)
	if err != nil {
		t.Fatal(err)
	}
	a := doc.CDDs[0].Body[0]
	if a.Args[0] != a.Args[1] || a.Args[1] != a.Args[2] {
		t.Errorf("chained equalities: %v", a)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`p(a)`,                     // missing dot
		`p(X).`,                    // variable in fact? no — X is constant in facts; make a real error:
		`[tgd] p(X) ->`,            // missing head
		`[cdd] p(X) -> q(X).`,      // CDD head must be !
		`[xyz] p(X) -> !.`,         // unknown tag
		`p(a,).`,                   // trailing comma
		`"unterminated`,            // bad string
		`[tgd] P(X) -> q(X).`,      // uppercase predicate in rule
		`[cdd] p(X), q(Y) -> !.`,   // cartesian CDD (logic.Validate)
		`[tgd] p(X) -> q(X), Y=X.`, // equality in TGD head
		`p(a) q(b).`,               // missing separator
		`[cdd] p(X) -> ! extra.`,   // garbage after head
	}
	for _, src := range cases {
		if src == `p(X).` {
			continue // facts treat X as a constant; covered elsewhere
		}
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted invalid input %q", src)
		}
	}
}

func TestParseBottomUnicodeHead(t *testing.T) {
	doc, err := Parse(`[cdd] p(X, X) -> ⊥.`)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.CDDs) != 1 {
		t.Error("unicode bottom not parsed")
	}
}

func TestParseComments(t *testing.T) {
	doc, err := Parse(`
# hash comment
% percent comment
p(a). # trailing comment
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Facts) != 1 {
		t.Errorf("facts = %d", len(doc.Facts))
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	doc, err := Parse(fig1bText)
	if err != nil {
		t.Fatal(err)
	}
	text := Serialize(doc)
	doc2, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, text)
	}
	if len(doc2.Facts) != len(doc.Facts) || len(doc2.TGDs) != len(doc.TGDs) || len(doc2.CDDs) != len(doc.CDDs) {
		t.Fatal("round trip changed counts")
	}
	for i := range doc.Facts {
		if !doc.Facts[i].Equal(doc2.Facts[i]) {
			t.Errorf("fact %d: %v vs %v", i, doc.Facts[i], doc2.Facts[i])
		}
	}
	for i := range doc.TGDs {
		if doc.TGDs[i].String() != doc2.TGDs[i].String() {
			t.Errorf("tgd %d: %v vs %v", i, doc.TGDs[i], doc2.TGDs[i])
		}
	}
	for i := range doc.CDDs {
		if doc.CDDs[i].String() != doc2.CDDs[i].String() {
			t.Errorf("cdd %d: %v vs %v", i, doc.CDDs[i], doc2.CDDs[i])
		}
	}
}

func TestSerializeQuotesRuleConstants(t *testing.T) {
	// A rule constant starting uppercase must be quoted so it round-trips
	// as a constant, not a variable.
	doc := &Document{
		CDDs: []*logic.CDD{logic.MustCDD([]logic.Atom{
			logic.NewAtom("p", logic.V("X"), logic.C("John")),
			logic.NewAtom("q", logic.V("X")),
		})},
	}
	text := Serialize(doc)
	if !strings.Contains(text, `"John"`) {
		t.Errorf("rule constant not quoted:\n%s", text)
	}
	doc2, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if doc2.CDDs[0].Body[0].Args[1] != logic.C("John") {
		t.Errorf("round trip turned constant into %v", doc2.CDDs[0].Body[0].Args[1])
	}
}

func TestSerializeRoundTripWithNullsAndQuotes(t *testing.T) {
	doc := &Document{
		Facts: []logic.Atom{
			logic.NewAtom("p", logic.N("n3"), logic.C("weird value!")),
			logic.NewAtom("q", logic.C(`with"quote`)),
		},
	}
	doc2, err := Parse(Serialize(doc))
	if err != nil {
		t.Fatal(err)
	}
	for i := range doc.Facts {
		if !doc.Facts[i].Equal(doc2.Facts[i]) {
			t.Errorf("fact %d: %v vs %v", i, doc.Facts[i], doc2.Facts[i])
		}
	}
}

func TestParseZeroArity(t *testing.T) {
	doc, err := Parse(`flag().`)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Facts[0].Arity() != 0 {
		t.Errorf("arity = %d", doc.Facts[0].Arity())
	}
}
