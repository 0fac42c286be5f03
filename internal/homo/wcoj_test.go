package homo

import (
	"fmt"
	"testing"

	"kbrepair/internal/logic"
	"kbrepair/internal/store"
)

// triangleFixture builds a dense directed graph over k vertices and the
// cyclic triangle body r(X,Y), s(Y,Z), t(Z,X) — the canonical shape where
// atom-at-a-time enumeration explores spurious two-atom prefixes.
func triangleFixture(tb testing.TB, k int) (*store.Store, []logic.Atom) {
	tb.Helper()
	s := store.New()
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if i == j {
				continue
			}
			if (i+j)%2 == 0 {
				s.MustAdd(logic.NewAtom("r", logic.C(fmt.Sprintf("v%d", i)), logic.C(fmt.Sprintf("v%d", j))))
			}
			if (i*j)%3 != 1 {
				s.MustAdd(logic.NewAtom("s", logic.C(fmt.Sprintf("v%d", i)), logic.C(fmt.Sprintf("v%d", j))))
			}
			if (i+2*j)%5 != 2 {
				s.MustAdd(logic.NewAtom("t", logic.C(fmt.Sprintf("v%d", i)), logic.C(fmt.Sprintf("v%d", j))))
			}
		}
	}
	body := []logic.Atom{
		logic.NewAtom("r", logic.V("X"), logic.V("Y")),
		logic.NewAtom("s", logic.V("Y"), logic.V("Z")),
		logic.NewAtom("t", logic.V("Z"), logic.V("X")),
	}
	return s, body
}

// TestWCOJAutoSelected pins compile-time kernel selection: the cyclic
// triangle gets the generic-join kernel without being forced, while the
// acyclic chain fixture stays on the static kernel.
func TestWCOJAutoSelected(t *testing.T) {
	s, tri := triangleFixture(t, 8)
	if p := CompileWith(tri, CompileOpts{Stats: s}); p.Mode() != ModeWCOJ {
		t.Errorf("triangle body compiled to mode %s, want wcoj", p.Mode())
	}
	cs, chain := planFixture(t, 20)
	if p := CompileWith(chain, CompileOpts{Stats: cs}); p.Mode() != ModeStatic {
		t.Errorf("chain body compiled to mode %s, want static", p.Mode())
	}
}

// TestWCOJMatchesReference anchors the generic-join kernel to the reference
// executor's match set on the triangle, unseeded and seeded.
func TestWCOJMatchesReference(t *testing.T) {
	s, body := triangleFixture(t, 8)
	p := CompileWith(body, CompileOpts{Stats: s})
	if p.Mode() != ModeWCOJ {
		t.Fatalf("triangle body compiled to mode %s, want wcoj", p.Mode())
	}
	want := matchSet(collectReference(s, body, nil))
	if len(want) == 0 {
		t.Fatal("triangle fixture produced no matches; test would be vacuous")
	}
	if got := matchSet(collectPlan(p, s, nil)); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("wcoj match set differs\n got %v\nwant %v", got, want)
	}
	seed := logic.Subst{logic.V("X"): logic.C("v0")}
	wantSeeded := matchSet(collectReference(s, body, seed))
	if got := matchSet(collectPlan(p, s, seed)); fmt.Sprint(got) != fmt.Sprint(wantSeeded) {
		t.Fatalf("seeded wcoj match set differs\n got %v\nwant %v", got, wantSeeded)
	}
}

// TestWCOJRepeatedVar covers a cyclic body with a repeated variable inside
// one atom: the emit phase must re-verify the repeated position.
func TestWCOJRepeatedVar(t *testing.T) {
	s := store.New()
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "a"}, {"a", "a"}, {"b", "a"}, {"c", "b"}} {
		s.MustAdd(logic.NewAtom("r", logic.C(e[0]), logic.C(e[1])))
		s.MustAdd(logic.NewAtom("s", logic.C(e[0]), logic.C(e[1])))
		s.MustAdd(logic.NewAtom("t", logic.C(e[0]), logic.C(e[1])))
	}
	body := []logic.Atom{
		logic.NewAtom("r", logic.V("X"), logic.V("Y")),
		logic.NewAtom("s", logic.V("Y"), logic.V("Z")),
		logic.NewAtom("t", logic.V("Z"), logic.V("Z")),
	}
	p := CompileWith(body, CompileOpts{Mode: ModeWCOJ})
	want := matchSet(collectReference(s, body, nil))
	if got := matchSet(collectPlan(p, s, nil)); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("repeated-var wcoj match set differs\n got %v\nwant %v", got, want)
	}
}

// TestWCOJZeroAllocCached extends the tentpole's allocation guarantee to the
// generic-join kernel: a cached exists-mode search on a warm pool allocates
// nothing (the per-level distinct-value sets are pooled and cleared, not
// reallocated).
func TestWCOJZeroAllocCached(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful without -race")
	}
	s, body := triangleFixture(t, 8)
	p := CompileWith(body, CompileOpts{Stats: s})
	p.Exists(s) // warm the pool
	if n := testing.AllocsPerRun(100, func() { p.Exists(s) }); n != 0 {
		t.Errorf("cached wcoj Exists allocates %v allocs/op, want 0", n)
	}
	fn := func(Match) bool { return true }
	p.ForEachSeeded(s, nil, fn)
	if n := testing.AllocsPerRun(100, func() { p.ForEachSeeded(s, nil, fn) }); n != 0 {
		t.Errorf("cached wcoj ForEach allocates %v allocs/op, want 0", n)
	}
}

// BenchmarkWCOJTriangle compares the kernels on the triangle workload in one
// run: generic join vs a forced static order.
func BenchmarkWCOJTriangle(b *testing.B) {
	s, body := triangleFixture(b, 16)
	for _, tc := range []struct {
		name string
		mode Mode
	}{{"wcoj", ModeWCOJ}, {"static", ModeStatic}} {
		b.Run(tc.name, func(b *testing.B) {
			p := CompileWith(body, CompileOpts{Stats: s, Mode: tc.mode})
			fn := func(Match) bool { return true }
			p.ForEachSeeded(s, nil, fn)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.ForEachSeeded(s, nil, fn)
			}
		})
	}
}
