package chase

import (
	"errors"
	"testing"

	"kbrepair/internal/obs/flight"
	"kbrepair/internal/par"
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
		if _, err := Run(s, tgds, Options{}); err != nil {
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
		_, err := Run(s, tgds, Options{MaxRounds: 2})
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
		_, err := Run(s, tgds, Options{MaxDerived: 1})
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
		res, err := run(s.Clone(), tgds, Options{}, "p3")
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

// TestChaseParallelFiringDispatch asserts the speculative-firing phase
// actually fans out over the worker pool: with more than one worker and
// more than one trigger per round, the chase emits par.dispatch events for
// both the collection and the firing fan-outs.
func TestChaseParallelFiringDispatch(t *testing.T) {
	withWorkers(t, 4)
	rec := flight.Enable(256)
	defer flight.Disable()
	s, tgds := deepChainKB(t, 3, 4)
	if _, err := Run(s, tgds, Options{}); err != nil {
		t.Fatal(err)
	}
	var dispatches int
	for _, e := range rec.Events() {
		if e.Kind == flight.KindParDispatch {
			dispatches++
		}
	}
	// Round 1 alone fans out twice: once over the 3 rules for collection,
	// once over the 4 triggers for speculative firing.
	if dispatches < 2 {
		t.Fatalf("par.dispatch events = %d, want >= 2 (collection + firing fan-outs)", dispatches)
	}
	par.SetWorkers(1)
	rec = flight.Enable(256)
	if _, err := Run(s, tgds, Options{}); err != nil {
		t.Fatal(err)
	}
	for _, e := range rec.Events() {
		if e.Kind == flight.KindParDispatch {
			t.Fatal("workers=1 must run inline, but a par.dispatch event was recorded")
		}
	}
}
