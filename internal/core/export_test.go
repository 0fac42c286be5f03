package core

import (
	"maps"

	"kbrepair/internal/store"
)

// NulledCopy exposes the one-shot Algorithm 1 instance builder to the
// external differential tests.
var NulledCopy = nulledCopy

// SyncedInstances returns the checker's session instances currently synced
// to pi (the slots the last batch under pi checked on).
func (pc *PiChecker) SyncedInstances(pi Pi) []*store.Store {
	var out []*store.Store
	for _, in := range pc.slots {
		if in.s != nil && maps.Equal(in.pi, pi) {
			out = append(out, in.s)
		}
	}
	return out
}

// Continues reports whether the checker decides optimized full checks by
// continuing a chase from a saturated instance (a relevant TGD exists).
// Valid once a batch has run a full check.
func (pc *PiChecker) Continues() bool {
	return pc.Optimized && pc.check != nil && pc.check.HasTGDs()
}

// SaturationViolated reports whether slot 0 holds a saturation that
// derived ⊥: the last continuation batch found its instance I violated.
func (pc *PiChecker) SaturationViolated() bool {
	return len(pc.slots) > 0 && pc.slots[0].saturated && pc.slots[0].violated
}

// Saturation returns slot 0's store — its first n facts the synced
// instance I, then derived facts — and whether they are a saturation of I
// and whether it holds ⊥.
func (pc *PiChecker) Saturation() (s *store.Store, n int, saturated, violated bool) {
	if len(pc.slots) == 0 || pc.slots[0].s == nil {
		return nil, 0, false, false
	}
	in := pc.slots[0]
	return in.s, in.n, in.saturated, in.violated
}

// Saturations returns how many syncs kept slot 0's saturation up to date
// and how many saturations were chased from fact 0.
func (pc *PiChecker) Saturations() (maintained, scratch int) {
	return pc.maintained, pc.scratch
}
