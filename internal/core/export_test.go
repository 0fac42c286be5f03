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
