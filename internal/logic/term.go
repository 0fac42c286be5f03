// Package logic defines the first-order vocabulary used throughout kbrepair:
// terms (constants, universally quantified variables and labeled nulls),
// atoms, substitutions, and the two rule classes of the paper —
// tuple-generating dependencies (TGDs) and contradiction-detecting
// dependencies (CDDs).
package logic

import (
	"fmt"
	"slices"
	"strings"
)

// Kind distinguishes the three sorts of terms.
type Kind uint8

const (
	// Const is an ordinary constant such as Aspirin.
	Const Kind = iota
	// Var is a universally quantified rule variable such as X.
	Var
	// Null is a labeled null (existential variable) such as _:n42. Nulls
	// behave like constants when evaluating homomorphisms over a set of
	// facts: two distinct nulls never unify with each other, and a null
	// never unifies with a constant.
	Null
)

func (k Kind) String() string {
	switch k {
	case Const:
		return "const"
	case Var:
		return "var"
	case Null:
		return "null"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Term is a single argument of an atom. Terms are small comparable values:
// two Terms are equal iff they have the same Kind and Name, so they can be
// used directly as map keys.
type Term struct {
	Kind Kind
	Name string
}

// C returns the constant with the given name.
func C(name string) Term { return Term{Kind: Const, Name: name} }

// V returns the variable with the given name.
func V(name string) Term { return Term{Kind: Var, Name: name} }

// N returns the labeled null with the given label.
func N(label string) Term { return Term{Kind: Null, Name: label} }

// IsConst reports whether t is a constant.
func (t Term) IsConst() bool { return t.Kind == Const }

// IsVar reports whether t is a universally quantified variable.
func (t Term) IsVar() bool { return t.Kind == Var }

// IsNull reports whether t is a labeled null.
func (t Term) IsNull() bool { return t.Kind == Null }

// IsGround reports whether t contains no rule variable, i.e. it is a
// constant or a labeled null. Facts are made of ground terms only.
func (t Term) IsGround() bool { return t.Kind != Var }

// String renders the term in the text syntax understood by the parser:
// constants verbatim, variables with a leading '?'-free uppercase convention
// preserved as written, and nulls with the "_:" prefix.
func (t Term) String() string {
	if t.Kind == Null {
		return "_:" + t.Name
	}
	return t.Name
}

// Compare orders terms first by kind, then by name. It is used to give
// deterministic iteration orders wherever map iteration would otherwise
// introduce nondeterminism.
func (t Term) Compare(u Term) int {
	if t.Kind != u.Kind {
		if t.Kind < u.Kind {
			return -1
		}
		return 1
	}
	return strings.Compare(t.Name, u.Name)
}

// SortTerms sorts terms in place with Term.Compare order. Terms that compare
// equal are equal values, so the unstable sort's output is unique.
func SortTerms(ts []Term) {
	slices.SortFunc(ts, Term.Compare)
}
