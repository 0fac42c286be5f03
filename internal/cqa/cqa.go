// Package cqa implements query answering over inconsistent knowledge
// bases in the spirit of the update-based consistent query answering the
// paper builds on (Wijsen 2005, [28] in the paper): a tuple is a
// *consistent answer* when it is an answer in every u-repair.
//
// Enumerating all u-repairs is intractable, so this package offers
//
//   - exact certain answers on a (consistent) KB via the chase, and
//   - an empirical approximation of consistent/possible answers over
//     inconsistent KBs by sampling u-repairs: each sample runs one
//     simulated inquiry (whose soundness guarantees a genuine u-repair
//     state), answers the query on the repaired KB, and the results are
//     intersected (cautious) or united (brave).
//
// The sampled cautious set over-approximates the true consistent answers
// (it intersects a subset of all repairs); the brave set under-approximates
// the possible answers. Both converge as the sample count grows.
package cqa

import (
	"fmt"
	"sort"
	"strings"

	"kbrepair/internal/chase"
	"kbrepair/internal/core"
	"kbrepair/internal/inquiry"
	"kbrepair/internal/logic"
)

// Query is a conjunctive query: a body with distinguished answer
// variables.
type Query struct {
	Body []logic.Atom
	Answ []logic.Term
}

// Validate checks that the answer variables occur in the body.
func (q Query) Validate() error {
	inBody := make(map[logic.Term]bool)
	for _, v := range logic.VarsOf(q.Body) {
		inBody[v] = true
	}
	for _, v := range q.Answ {
		if !v.IsVar() {
			return fmt.Errorf("cqa: answer term %s is not a variable", v)
		}
		if !inBody[v] {
			return fmt.Errorf("cqa: answer variable %s does not occur in the body", v)
		}
	}
	return nil
}

// Tuple is one answer tuple.
type Tuple []logic.Term

// Key returns a canonical string for set operations.
func (t Tuple) Key() string {
	parts := make([]string, len(t))
	for i, x := range t {
		parts[i] = string(rune('0'+x.Kind)) + x.Name
	}
	return strings.Join(parts, "\x00")
}

// String renders the tuple as "(a, b)".
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, x := range t {
		parts[i] = x.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// CertainAnswers computes Q(F, ΣT): the all-constant certain answers of
// the query over the KB's chase. On an inconsistent KB these are the
// standard (inconsistency-blind) answers.
func CertainAnswers(kb *core.KB, q Query) ([]Tuple, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	raw, err := chase.Answers(kb.Facts, kb.Rules, q.Body, q.Answ, kb.ChaseOpts)
	if err != nil {
		return nil, err
	}
	out := make([]Tuple, len(raw))
	for i, r := range raw {
		out[i] = Tuple(r)
	}
	sortTuples(out)
	return out, nil
}

// Result is the outcome of repair-sampled query answering.
type Result struct {
	// Cautious holds the tuples answered in every sampled repair (the
	// consistent-answer approximation).
	Cautious []Tuple
	// Brave holds the tuples answered in at least one sampled repair.
	Brave []Tuple
	// Support maps each brave tuple key to the number of supporting
	// repairs.
	Support map[string]int
	// Samples is the number of repairs drawn.
	Samples int
}

// SampledAnswers draws `samples` u-repairs of the KB via simulated
// inquiries (strategy opti-mcd, one distinct user seed per sample) and
// aggregates the query answers across them. The input KB is not modified.
func SampledAnswers(kb *core.KB, q Query, samples int, seed int64) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if samples <= 0 {
		return nil, fmt.Errorf("cqa: samples must be positive")
	}
	res := &Result{Support: make(map[string]int), Samples: samples}
	byKey := make(map[string]Tuple)
	for s := 0; s < samples; s++ {
		clone := kb.Clone()
		e := inquiry.New(clone, inquiry.OptiMCD{}, inquiry.NewSimulatedUser(seed+int64(s)), seed+int64(s), inquiry.Options{})
		runRes, err := e.Run()
		if err != nil {
			return nil, fmt.Errorf("cqa: sample %d: %w", s, err)
		}
		if !runRes.Consistent {
			return nil, fmt.Errorf("cqa: sample %d did not reach consistency", s)
		}
		answers, err := chase.Answers(clone.Facts, clone.Rules, q.Body, q.Answ, clone.ChaseOpts)
		if err != nil {
			return nil, err
		}
		for _, a := range answers {
			t := Tuple(a)
			k := t.Key()
			if _, ok := byKey[k]; !ok {
				byKey[k] = t
			}
			res.Support[k]++
		}
	}
	for k, t := range byKey {
		res.Brave = append(res.Brave, t)
		if res.Support[k] == samples {
			res.Cautious = append(res.Cautious, t)
		}
	}
	sortTuples(res.Brave)
	sortTuples(res.Cautious)
	return res, nil
}

func sortTuples(ts []Tuple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Key() < ts[j].Key() })
}
