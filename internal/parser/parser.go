package parser

import (
	"fmt"
	"unicode"
	"unicode/utf8"

	"kbrepair/internal/logic"
	"kbrepair/internal/store"
)

// Document is the parsed content of a knowledge-base file.
type Document struct {
	Facts []logic.Atom
	TGDs  []*logic.TGD
	CDDs  []*logic.CDD
}

// Store builds an indexed fact store from the document's facts. Parsed
// nulls need no reservation: the store escapes every null it names against
// its own contents.
func (d *Document) Store() (*store.Store, error) {
	return store.FromAtoms(d.Facts)
}

// Parse reads a whole knowledge base from the text format.
func Parse(src string) (*Document, error) {
	p := &parser{lx: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	doc := &Document{}
	for p.tok.kind != tokEOF {
		switch p.tok.kind {
		case tokTag:
			tag := p.tok.text
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.parseRule(tag, doc); err != nil {
				return nil, err
			}
		case tokIdent, tokString:
			atom, err := p.parseAtom(factMode)
			if err != nil {
				return nil, err
			}
			if err := p.expect(tokDot); err != nil {
				return nil, err
			}
			doc.Facts = append(doc.Facts, atom)
		default:
			return nil, p.errorf("expected fact or rule, found %s", p.tok.kind)
		}
	}
	return doc, nil
}

// mode controls how bare identifiers are interpreted: in facts everything
// is a constant; in rules the Datalog uppercase-initial convention makes
// variables.
type mode int

const (
	factMode mode = iota
	ruleMode
)

type parser struct {
	lx  *lexer
	tok token
}

func (p *parser) advance() error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("%d:%d: %s", p.tok.line, p.tok.col, fmt.Sprintf(format, args...))
}

func (p *parser) expect(kind tokenKind) error {
	if p.tok.kind != kind {
		return p.errorf("expected %s, found %s %q", kind, p.tok.kind, p.tok.text)
	}
	return p.advance()
}

// parseTerm reads one term under the given mode.
func (p *parser) parseTerm(m mode) (logic.Term, error) {
	switch p.tok.kind {
	case tokIdent:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return logic.Term{}, err
		}
		if m == ruleMode && startsUpper(name) {
			return logic.V(name), nil
		}
		return logic.C(name), nil
	case tokString:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return logic.Term{}, err
		}
		return logic.C(name), nil
	case tokNull:
		if m == ruleMode {
			return logic.Term{}, p.errorf("labeled nulls are not allowed inside rules")
		}
		name := p.tok.text
		if err := p.advance(); err != nil {
			return logic.Term{}, err
		}
		return logic.N(name), nil
	default:
		return logic.Term{}, p.errorf("expected term, found %s %q", p.tok.kind, p.tok.text)
	}
}

func startsUpper(s string) bool {
	r, _ := utf8.DecodeRuneInString(s)
	return unicode.IsUpper(r)
}

// parseAtom reads pred(t1, ..., tn).
func (p *parser) parseAtom(m mode) (logic.Atom, error) {
	if p.tok.kind != tokIdent && p.tok.kind != tokString {
		return logic.Atom{}, p.errorf("expected predicate name, found %s %q", p.tok.kind, p.tok.text)
	}
	pred := p.tok.text
	if m == ruleMode && startsUpper(pred) {
		return logic.Atom{}, p.errorf("predicate %q must not start with an uppercase letter in rules", pred)
	}
	if err := p.advance(); err != nil {
		return logic.Atom{}, err
	}
	if err := p.expect(tokLParen); err != nil {
		return logic.Atom{}, err
	}
	var args []logic.Term
	if p.tok.kind != tokRParen {
		for {
			t, err := p.parseTerm(m)
			if err != nil {
				return logic.Atom{}, err
			}
			args = append(args, t)
			if p.tok.kind != tokComma {
				break
			}
			if err := p.advance(); err != nil {
				return logic.Atom{}, err
			}
		}
	}
	if err := p.expect(tokRParen); err != nil {
		return logic.Atom{}, err
	}
	if m == factMode {
		for _, t := range args {
			if t.IsVar() {
				return logic.Atom{}, p.errorf("fact argument %s is a variable", t)
			}
		}
	}
	return logic.NewAtom(pred, args...), nil
}

// equality is a parsed `X = Y` atom awaiting normalization.
type equality struct {
	left, right logic.Term
	line, col   int
}

// parseConjunction reads atoms (and, in CDD bodies, equalities) separated
// by commas until a terminator.
func (p *parser) parseConjunction(m mode, allowEq bool) ([]logic.Atom, []equality, error) {
	var atoms []logic.Atom
	var eqs []equality
	for {
		line, col := p.tok.line, p.tok.col
		// Lookahead: term '=' term is an equality; otherwise an atom.
		// Equality left sides can only be identifiers or strings.
		if allowEq && (p.tok.kind == tokIdent || p.tok.kind == tokString) {
			// Peek by cloning lexer state is messy; instead parse the
			// identifier and decide on the next token.
			name := p.tok.text
			kind := p.tok.kind
			if err := p.advance(); err != nil {
				return nil, nil, err
			}
			if p.tok.kind == tokEquals {
				var left logic.Term
				if kind == tokString {
					left = logic.C(name)
				} else if m == ruleMode && startsUpper(name) {
					left = logic.V(name)
				} else {
					left = logic.C(name)
				}
				if err := p.advance(); err != nil {
					return nil, nil, err
				}
				right, err := p.parseTerm(m)
				if err != nil {
					return nil, nil, err
				}
				eqs = append(eqs, equality{left: left, right: right, line: line, col: col})
			} else {
				// It was a predicate name; continue parsing the atom body.
				atom, err := p.parseAtomAfterName(name, m)
				if err != nil {
					return nil, nil, err
				}
				atoms = append(atoms, atom)
			}
		} else {
			atom, err := p.parseAtom(m)
			if err != nil {
				return nil, nil, err
			}
			atoms = append(atoms, atom)
		}
		if p.tok.kind != tokComma {
			return atoms, eqs, nil
		}
		if err := p.advance(); err != nil {
			return nil, nil, err
		}
	}
}

// parseAtomAfterName finishes an atom whose predicate name token was
// already consumed.
func (p *parser) parseAtomAfterName(pred string, m mode) (logic.Atom, error) {
	if m == ruleMode && startsUpper(pred) {
		return logic.Atom{}, p.errorf("predicate %q must not start with an uppercase letter in rules", pred)
	}
	if err := p.expect(tokLParen); err != nil {
		return logic.Atom{}, err
	}
	var args []logic.Term
	if p.tok.kind != tokRParen {
		for {
			t, err := p.parseTerm(m)
			if err != nil {
				return logic.Atom{}, err
			}
			args = append(args, t)
			if p.tok.kind != tokComma {
				break
			}
			if err := p.advance(); err != nil {
				return logic.Atom{}, err
			}
		}
	}
	if err := p.expect(tokRParen); err != nil {
		return logic.Atom{}, err
	}
	return logic.NewAtom(pred, args...), nil
}

// parseRule reads the remainder of a [tgd]/[cdd] statement.
func (p *parser) parseRule(tag string, doc *Document) error {
	body, eqs, err := p.parseConjunction(ruleMode, tag == "cdd")
	if err != nil {
		return err
	}
	if err := p.expect(tokArrow); err != nil {
		return err
	}
	switch tag {
	case "cdd":
		if p.tok.kind != tokBang {
			return p.errorf("CDD head must be '!' or '⊥', found %s %q", p.tok.kind, p.tok.text)
		}
		if err := p.advance(); err != nil {
			return err
		}
		if err := p.expect(tokDot); err != nil {
			return err
		}
		body, err = normalizeEqualities(body, eqs)
		if err != nil {
			return err
		}
		cdd, err := logic.NewCDD(body)
		if err != nil {
			return err
		}
		doc.CDDs = append(doc.CDDs, cdd)
	case "tgd":
		head, headEqs, err := p.parseConjunction(ruleMode, false)
		if err != nil {
			return err
		}
		if len(headEqs) > 0 {
			return fmt.Errorf("equalities are not allowed in TGD heads")
		}
		if err := p.expect(tokDot); err != nil {
			return err
		}
		tgd, err := logic.NewTGD(body, head)
		if err != nil {
			return err
		}
		doc.TGDs = append(doc.TGDs, tgd)
	}
	return nil
}

// normalizeEqualities rewrites X = Y equalities into repeated variables /
// substituted constants, per §2 ("the body B may have equalities").
func normalizeEqualities(body []logic.Atom, eqs []equality) ([]logic.Atom, error) {
	sub := logic.NewSubst()
	resolve := func(t logic.Term) logic.Term {
		for t.IsVar() {
			b, ok := sub[t]
			if !ok {
				break
			}
			t = b
		}
		return t
	}
	for _, eq := range eqs {
		l, r := resolve(eq.left), resolve(eq.right)
		switch {
		case l == r:
			// trivial, drop
		case l.IsVar():
			sub[l] = r
		case r.IsVar():
			sub[r] = l
		default:
			return nil, fmt.Errorf("%d:%d: equality %s = %s between distinct constants makes the CDD unsatisfiable",
				eq.line, eq.col, l, r)
		}
	}
	// Apply with full resolution (chains of variable bindings).
	out := make([]logic.Atom, len(body))
	for i, a := range body {
		args := make([]logic.Term, len(a.Args))
		for j, t := range a.Args {
			args[j] = resolve(t)
		}
		out[i] = logic.NewAtom(a.Pred, args...)
	}
	return out, nil
}
