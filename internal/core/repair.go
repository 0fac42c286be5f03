package core

import (
	"fmt"

	"kbrepair/internal/logic"
)

// IsCFix reports whether P is a consistent fix set (c-fix, Def. 3.4): the
// update apply(F, P) yields a consistent KB.
func IsCFix(kb *KB, fs FixSet) (bool, error) {
	mCFixChecks.Inc()
	if err := fs.Validate(); err != nil {
		return false, err
	}
	undo, err := ApplyInPlace(kb.Facts, fs)
	if err != nil {
		return false, err
	}
	ok, cerr := kb.IsConsistent()
	if _, uerr := ApplyInPlace(kb.Facts, undo); uerr != nil {
		return false, fmt.Errorf("undo failed: %v (original error: %v)", uerr, cerr)
	}
	return ok, cerr
}

// IsRFix reports whether P is a repair fix set (r-fix, Def. 3.4): a c-fix
// none of whose proper subsets is a c-fix. The check is exponential in |P|
// by definition; it refuses sets larger than maxExhaustiveRFix.
func IsRFix(kb *KB, fs FixSet) (bool, error) {
	fs = fs.Canonical()
	if len(fs) > maxExhaustiveRFix {
		return false, fmt.Errorf("r-fix check limited to %d fixes (got %d); use IsLocallyMinimalCFix", maxExhaustiveRFix, len(fs))
	}
	ok, err := IsCFix(kb, fs)
	if err != nil || !ok {
		return false, err
	}
	n := len(fs)
	for mask := 0; mask < (1 << n); mask++ {
		if mask == (1<<n)-1 { // the full set
			continue
		}
		sub := make(FixSet, 0, n)
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				sub = append(sub, fs[i])
			}
		}
		subOK, err := IsCFix(kb, sub)
		if err != nil {
			return false, err
		}
		if subOK {
			return false, nil
		}
	}
	return true, nil
}

const maxExhaustiveRFix = 16

// IsLocallyMinimalCFix reports whether P is a c-fix from which no single
// fix can be removed while preserving consistency — the practical
// polynomial-time approximation of the r-fix condition.
func IsLocallyMinimalCFix(kb *KB, fs FixSet) (bool, error) {
	fs = fs.Canonical()
	ok, err := IsCFix(kb, fs)
	if err != nil || !ok {
		return false, err
	}
	for _, f := range fs {
		subOK, err := IsCFix(kb, fs.Without(f))
		if err != nil {
			return false, err
		}
		if subOK {
			return false, nil
		}
	}
	return true, nil
}

// MinimizeCFix greedily shrinks a c-fix to a locally minimal one by
// repeatedly dropping any fix whose removal preserves consistency. The
// result applied to F gives a u-repair candidate whose fix set cannot be
// shrunk one fix at a time.
func MinimizeCFix(kb *KB, fs FixSet) (FixSet, error) {
	fs = fs.Canonical()
	ok, err := IsCFix(kb, fs)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("minimize: input is not a c-fix")
	}
	changed := true
	for changed {
		changed = false
		for _, f := range fs {
			cand := fs.Without(f)
			subOK, err := IsCFix(kb, cand)
			if err != nil {
				return nil, err
			}
			if subOK {
				fs = cand
				changed = true
				break
			}
		}
	}
	return fs, nil
}

// GuaranteedCFix returns the always-existing c-fix of §3: every position is
// set to a fresh existential variable unique to it, so no constraint can
// ever be triggered. It witnesses that every KB is repairable.
func GuaranteedCFix(kb *KB) FixSet {
	var out FixSet
	for _, p := range kb.Facts.Positions() {
		out = append(out, Fix{Pos: p, Value: kb.Facts.NullForPos(p)})
	}
	return out
}

// UpdateRepair materializes the u-repair apply(F, P) for an r-fix (or any
// fix set); it is a convenience wrapper around Apply.
func UpdateRepair(kb *KB, fs FixSet) (*KB, error) {
	s, err := Apply(kb.Facts, fs)
	if err != nil {
		return nil, err
	}
	return kb.WithFacts(s), nil
}

// FixValues enumerates the candidate values for a position per Def. 3.1:
// the active domain of (pred, arg) minus the current value, plus one fresh
// null uniquely attributed to the position (store.NullForPos, last). It only
// reads the store.
func FixValues(kb *KB, pos Position) []logic.Term {
	a := kb.Facts.FactRef(pos.Fact)
	cur := kb.Facts.Value(pos)
	dom := kb.Facts.ActiveDomain(a.Pred, pos.Arg)
	out := make([]logic.Term, 0, len(dom)+1)
	for _, t := range dom {
		if t != cur {
			out = append(out, t)
		}
	}
	return append(out, kb.Facts.NullForPos(pos))
}
