package inquiry

import (
	"fmt"
	"slices"
	"testing"

	"kbrepair/internal/conflict"
)

// checkRescans makes every chase-level re-scan of e (phase two of Run, and
// every round of RunBasic) compare its maintained result with a fresh
// KB.AllConflictsUnder of the same KB, failing t on the first difference.
// It returns the number of re-scans checked so far.
func checkRescans(t testing.TB, e *Engine) *int {
	n := new(int)
	e.rescanned = func(got []*conflict.Conflict) {
		*n++
		want, err := e.KB.AllConflictsUnder(0)
		if err != nil {
			t.Fatalf("re-scan %d: fresh scan: %v", *n, err)
		}
		if err := sameConflicts(got, want); err != nil {
			t.Fatalf("re-scan %d: %v", *n, err)
		}
	}
	return n
}

// sameConflicts reports the first difference between two conflict lists:
// length, order, Key, Direct, BaseFacts, and the Facts of direct conflicts
// (a non-direct conflict's Facts name derived facts its scan truncated).
func sameConflicts(got, want []*conflict.Conflict) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d conflicts, fresh scan has %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		switch {
		case g.Key() != w.Key():
			return fmt.Errorf("conflict %d: key %s, fresh %s", i, g.Key(), w.Key())
		case g.Direct != w.Direct:
			return fmt.Errorf("conflict %d (%s): direct %v, fresh %v", i, g.Key(), g.Direct, w.Direct)
		case !slices.Equal(g.BaseFacts, w.BaseFacts):
			return fmt.Errorf("conflict %d (%s): base facts %v, fresh %v", i, g.Key(), g.BaseFacts, w.BaseFacts)
		case g.Direct && !slices.Equal(g.Facts, w.Facts):
			return fmt.Errorf("conflict %d (%s): facts %v, fresh %v", i, g.Key(), g.Facts, w.Facts)
		}
	}
	return nil
}
