package core

import (
	"maps"

	"kbrepair/internal/store"
)

// NulledCopy exposes the one-shot Algorithm 1 instance builder to the
// external differential tests.
var NulledCopy = nulledCopy

// SyncedInstances returns the checker's session instance when it is
// synced to pi (the last batch under pi checked on it), and nothing
// otherwise.
func (pc *PiChecker) SyncedInstances(pi Pi) []*store.Store {
	if pc.in.s != nil && maps.Equal(pc.in.pi, pi) {
		return []*store.Store{pc.in.s}
	}
	return nil
}

// Continues reports whether the checker decides optimized full checks by
// continuing a chase from a saturated instance (a relevant TGD exists).
// Valid once a batch has run a full check.
func (pc *PiChecker) Continues() bool {
	return pc.Optimized && pc.check != nil && pc.check.HasTGDs()
}

// SaturationViolated reports whether the instance holds a saturation that
// derived ⊥: the last continuation batch found the instance I violated.
func (pc *PiChecker) SaturationViolated() bool {
	return pc.in.saturated && pc.in.violated
}

// Saturation returns the instance's store — its first n facts the synced
// instance I, then derived facts — and whether they are a saturation of I
// and whether it holds ⊥.
func (pc *PiChecker) Saturation() (s *store.Store, n int, saturated, violated bool) {
	in := &pc.in
	if in.s == nil {
		return nil, 0, false, false
	}
	return in.s, in.n, in.saturated, in.violated
}

// Saturations returns how many syncs kept the instance's saturation up to date
// and how many saturations were chased from fact 0.
func (pc *PiChecker) Saturations() (maintained, scratch int) {
	return pc.maintained, pc.scratch
}
