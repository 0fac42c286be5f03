package logic

import (
	"fmt"
	"strings"
)

// TGD is a tuple-generating dependency (existential rule)
//
//	∀x∀y B(x,y) → ∃z H(y,z)
//
// Variables occurring in the head but not in the body are existentially
// quantified; the chase instantiates them with fresh labeled nulls
// (the paper's safe(H)).
type TGD struct {
	// Label is an optional human-readable identifier used in diagnostics.
	Label string
	Body  []Atom
	Head  []Atom
}

// NewTGD builds a TGD and validates it.
func NewTGD(body, head []Atom) (*TGD, error) {
	t := &TGD{Body: body, Head: head}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// MustTGD is like NewTGD but panics on invalid input. Intended for tests and
// hand-written rule sets.
func MustTGD(body, head []Atom) *TGD {
	t, err := NewTGD(body, head)
	if err != nil {
		panic(err)
	}
	return t
}

// Validate checks structural well-formedness: non-empty body and head, no
// labeled nulls inside the rule, and at least one frontier variable is not
// required (a head can be fully existential).
func (t *TGD) Validate() error {
	if len(t.Body) == 0 {
		return fmt.Errorf("tgd %s: empty body", t.Label)
	}
	if len(t.Head) == 0 {
		return fmt.Errorf("tgd %s: empty head", t.Label)
	}
	for _, a := range append(append([]Atom{}, t.Body...), t.Head...) {
		for _, arg := range a.Args {
			if arg.IsNull() {
				return fmt.Errorf("tgd %s: labeled null %s inside rule", t.Label, arg)
			}
		}
	}
	return nil
}

// FrontierVars returns the variables shared between body and head (the
// paper's y).
func (t *TGD) FrontierVars() []Term {
	bodyVars := make(map[Term]bool)
	for _, v := range VarsOf(t.Body) {
		bodyVars[v] = true
	}
	var out []Term
	for _, v := range VarsOf(t.Head) {
		if bodyVars[v] {
			out = append(out, v)
		}
	}
	return out
}

// ExistentialVars returns the head variables that do not occur in the body
// (the paper's z); the chase replaces them with fresh nulls.
func (t *TGD) ExistentialVars() []Term {
	bodyVars := make(map[Term]bool)
	for _, v := range VarsOf(t.Body) {
		bodyVars[v] = true
	}
	var out []Term
	for _, v := range VarsOf(t.Head) {
		if !bodyVars[v] {
			out = append(out, v)
		}
	}
	return out
}

// String renders the TGD in the parser syntax:
// "[tgd] b1, b2 -> h1, h2.".
func (t *TGD) String() string {
	return fmt.Sprintf("[tgd] %s -> %s.", AtomsString(t.Body), AtomsString(t.Head))
}

// CDD is a contradiction-detecting dependency
//
//	∀x B(x) → ⊥
//
// i.e. a denial constraint whose body uses only equality (expressed through
// repeated variables and constants; the parser normalizes explicit X = Y
// equalities away). Per §2 of the paper, a meaningful CDD must contain a
// join variable when it has more than one atom.
type CDD struct {
	// Label is an optional human-readable identifier used in diagnostics.
	Label string
	Body  []Atom
}

// NewCDD builds a CDD and validates it.
func NewCDD(body []Atom) (*CDD, error) {
	c := &CDD{Body: body}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// MustCDD is like NewCDD but panics on invalid input.
func MustCDD(body []Atom) *CDD {
	c, err := NewCDD(body)
	if err != nil {
		panic(err)
	}
	return c
}

// Validate checks structural well-formedness: non-empty body, no labeled
// nulls, and — when the body has several atoms — at least one join variable
// connecting them (the paper's meaningfulness assumption; it rules out pure
// schema constraints such as p(X,Y) → ⊥ only for the multi-atom case, where
// unconnected atoms would make the CDD a cartesian-product constraint).
func (c *CDD) Validate() error {
	if len(c.Body) == 0 {
		return fmt.Errorf("cdd %s: empty body", c.Label)
	}
	for _, a := range c.Body {
		for _, arg := range a.Args {
			if arg.IsNull() {
				return fmt.Errorf("cdd %s: labeled null %s inside rule", c.Label, arg)
			}
		}
	}
	if len(c.Body) > 1 && len(c.JoinVars()) == 0 {
		return fmt.Errorf("cdd %s: multi-atom body without join variables", c.Label)
	}
	return nil
}

// JoinVars returns the variables occurring in at least two distinct atom
// occurrences of the body (or at least twice within one atom), in first
// occurrence order. These determine the join positions of §5 (opti-join).
func (c *CDD) JoinVars() []Term {
	count := make(map[Term]int)
	var order []Term
	for _, a := range c.Body {
		for _, t := range a.Args {
			if !t.IsVar() {
				continue
			}
			if count[t] == 0 {
				order = append(order, t)
			}
			count[t]++
		}
	}
	var out []Term
	for _, v := range order {
		if count[v] >= 2 {
			out = append(out, v)
		}
	}
	return out
}

// JoinPositions reports, for each body atom index, which argument indexes
// hold a join variable. The result maps body-atom index → sorted arg indexes.
func (c *CDD) JoinPositions() map[int][]int {
	joins := make(map[Term]bool)
	for _, v := range c.JoinVars() {
		joins[v] = true
	}
	out := make(map[int][]int)
	for i, a := range c.Body {
		for j, t := range a.Args {
			if t.IsVar() && joins[t] {
				out[i] = append(out[i], j)
			}
		}
	}
	return out
}

// String renders the CDD in the parser syntax: "[cdd] b1, b2 -> !.".
func (c *CDD) String() string {
	return fmt.Sprintf("[cdd] %s -> !.", AtomsString(c.Body))
}

// RuleSet bundles the dependencies of a knowledge base.
type RuleSet struct {
	TGDs []*TGD
	CDDs []*CDD
}

// Clone returns a shallow copy of the rule set (rules themselves are
// immutable once built, so sharing them is safe).
func (rs RuleSet) Clone() RuleSet {
	return RuleSet{
		TGDs: append([]*TGD(nil), rs.TGDs...),
		CDDs: append([]*CDD(nil), rs.CDDs...),
	}
}

// Predicates returns the set of predicate names mentioned in the rules.
func (rs RuleSet) Predicates() map[string]int {
	out := make(map[string]int)
	add := func(as []Atom) {
		for _, a := range as {
			out[a.Pred] = a.Arity()
		}
	}
	for _, t := range rs.TGDs {
		add(t.Body)
		add(t.Head)
	}
	for _, c := range rs.CDDs {
		add(c.Body)
	}
	return out
}

// String renders the whole rule set, TGDs first, one rule per line.
func (rs RuleSet) String() string {
	var sb strings.Builder
	for _, t := range rs.TGDs {
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	for _, c := range rs.CDDs {
		sb.WriteString(c.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
