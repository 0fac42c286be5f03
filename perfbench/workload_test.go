package main

import "testing"

func TestKBTextDeterminism(t *testing.T) {
	for _, w := range workloads {
		a1, err := w.kbText(sessionSeed(7, 0))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		a2, _ := w.kbText(sessionSeed(7, 0))
		b, _ := w.kbText(sessionSeed(8, 0))
		if a1 != a2 {
			t.Errorf("%s: the same seed gave different KB text", w.name)
		}
		// Durum Wheat is one fixed KB; only its user and engine are seeded.
		if wantSame := w.name == "durum-random"; (a1 == b) != wantSame {
			t.Errorf("%s: texts of different seeds equal = %v, want %v", w.name, a1 == b, wantSame)
		}
	}
}

func TestWorkloadByName(t *testing.T) {
	for _, w := range workloads {
		if got, err := workloadByName(w.name); err != nil || got.name != w.name {
			t.Errorf("workloadByName(%q) = %q, %v", w.name, got.name, err)
		}
	}
	if _, err := workloadByName("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}
