package chase

import (
	"errors"
	"testing"

	"kbrepair/internal/obs/flight"
)

// roundEvents extracts the chase round start/end events from a recorder and
// returns the counts plus the final end event.
func roundEvents(t *testing.T, rec *flight.Recorder) (starts, ends int, last flight.Event) {
	t.Helper()
	for _, e := range rec.Events() {
		switch e.Kind {
		case flight.KindChaseRoundStart:
			starts++
		case flight.KindChaseRoundEnd:
			ends++
			last = e
		}
	}
	return starts, ends, last
}

// TestChaseRoundEventsBalanced asserts the flight-recorder invariant that
// every KindChaseRoundStart is balanced by exactly one KindChaseRoundEnd on
// *every* exit path — normal completion, round-budget exceeded, derivation
// budget exceeded, and ⊥-abort — with the early exits carrying their status
// marker. The budget paths used to leak the round-start event.
func TestChaseRoundEventsBalanced(t *testing.T) {
	s, tgds := deepChainKB(t, 6, 2)

	t.Run("normal", func(t *testing.T) {
		rec := flight.Enable(256)
		defer flight.Disable()
		if _, err := Run(s, NewRules(tgds, nil, s), Options{}); err != nil {
			t.Fatal(err)
		}
		starts, ends, last := roundEvents(t, rec)
		if starts == 0 || starts != ends {
			t.Fatalf("round events unbalanced: %d starts, %d ends", starts, ends)
		}
		if last.Note != "" {
			t.Errorf("normal completion carries status %q, want none", last.Note)
		}
	})

	t.Run("rounds-exceeded", func(t *testing.T) {
		rec := flight.Enable(256)
		defer flight.Disable()
		_, err := Run(s, NewRules(tgds, nil, s), Options{MaxRounds: 2})
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("err = %v, want ErrBudget", err)
		}
		starts, ends, last := roundEvents(t, rec)
		if starts != 3 || ends != 3 {
			t.Fatalf("round events unbalanced: %d starts, %d ends (want 3 each)", starts, ends)
		}
		if last.Note != flight.RoundStatusBudget {
			t.Errorf("final round-end status = %q, want %q", last.Note, flight.RoundStatusBudget)
		}
	})

	t.Run("derived-budget", func(t *testing.T) {
		rec := flight.Enable(256)
		defer flight.Disable()
		_, err := Run(s, NewRules(tgds, nil, s), Options{MaxDerived: 1})
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("err = %v, want ErrBudget", err)
		}
		starts, ends, last := roundEvents(t, rec)
		if starts == 0 || starts != ends {
			t.Fatalf("round events unbalanced: %d starts, %d ends", starts, ends)
		}
		if last.Note != flight.RoundStatusBudget {
			t.Errorf("final round-end status = %q, want %q", last.Note, flight.RoundStatusBudget)
		}
	})

	t.Run("aborted", func(t *testing.T) {
		rec := flight.Enable(256)
		defer flight.Disable()
		res, err := runRules(s.Clone(), NewRules(tgds, nil, s).table, delta{}, Options{}, "p3")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Store.ByPredicate("p3")) == 0 {
			t.Fatal("abort predicate never derived; workload too weak")
		}
		starts, ends, last := roundEvents(t, rec)
		if starts == 0 || starts != ends {
			t.Fatalf("round events unbalanced: %d starts, %d ends", starts, ends)
		}
		if last.Note != flight.RoundStatusAborted {
			t.Errorf("final round-end status = %q, want %q", last.Note, flight.RoundStatusAborted)
		}
	})
}
