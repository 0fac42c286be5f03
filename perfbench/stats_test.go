package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileTailGuard(t *testing.T) {
	for _, tc := range []struct {
		n, pct int
		ok     bool
	}{
		{199, 95, false}, // 9.95 samples beyond p95
		{200, 95, true},  // exactly 10 beyond
		{19, 50, false},
		{20, 50, true},
		{999, 99, false},
		{1000, 99, true},
		{0, 50, false},
	} {
		_, err := percentile(seq(tc.n), tc.pct)
		if tc.ok && err != nil {
			t.Errorf("p%d of %d samples: %v", tc.pct, tc.n, err)
		}
		if !tc.ok && !errors.Is(err, errTooFewSamples) {
			t.Errorf("p%d of %d samples: err = %v, want errTooFewSamples", tc.pct, tc.n, err)
		}
	}
	for _, pct := range []int{0, 100, -5} {
		if _, err := percentile(seq(1000), pct); err == nil || errors.Is(err, errTooFewSamples) {
			t.Errorf("p%d: err = %v, want a range error", pct, err)
		}
	}
}

func TestPercentileValues(t *testing.T) {
	xs := seq(201) // 1..201
	for _, tc := range []struct {
		pct  int
		want float64
	}{{50, 101}, {95, 191}, {90, 181}} {
		got, err := percentile(xs, tc.pct)
		if err != nil || got != tc.want {
			t.Errorf("p%d = %v, %v; want %v", tc.pct, got, err, tc.want)
		}
	}
	// Interpolates between ranks: 1..200 has its p50 halfway between 100 and 101.
	if got, _ := percentile(seq(200), 50); got != 100.5 {
		t.Errorf("p50 of 1..200 = %v, want 100.5", got)
	}
	if xs[0] != 201 {
		t.Error("percentile sorted its input in place")
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestReconcile(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{"a", at(0), at(10)},
		{"b", at(10), at(25)},
		{"a", at(30), at(35)}, // a 5ms gap before it
		{"c", at(35), at(35)}, // empty spans are allowed
	}
	byLayer, rest, err := reconcile(spans, at(0), at(50))
	if err != nil {
		t.Fatal(err)
	}
	if byLayer["a"] != 15*time.Millisecond || byLayer["b"] != 15*time.Millisecond || byLayer["c"] != 0 {
		t.Errorf("per-layer = %v", byLayer)
	}
	if rest != 20*time.Millisecond {
		t.Errorf("unattributed = %v, want 20ms", rest)
	}
	var sum time.Duration
	for _, d := range byLayer {
		sum += d
	}
	if sum+rest != 50*time.Millisecond {
		t.Errorf("layers %v + unattributed %v != window 50ms", sum, rest)
	}

	for name, bad := range map[string][]span{
		"overlap":       {{"a", at(0), at(10)}, {"b", at(9), at(12)}},
		"backwards":     {{"a", at(5), at(4)}},
		"before window": {{"a", t0.Add(-time.Millisecond), at(3)}},
		"past window":   {{"a", at(40), at(51)}},
		"out of order":  {{"a", at(20), at(30)}, {"b", at(0), at(5)}},
	} {
		if _, _, err := reconcile(bad, at(0), at(50)); err == nil {
			t.Errorf("%s: reconcile accepted %v", name, bad)
		}
	}
	if _, _, err := reconcile(nil, at(5), at(0)); err == nil {
		t.Error("reversed window accepted")
	}
	if _, rest, _ := reconcile(nil, at(0), at(7)); rest != 7*time.Millisecond {
		t.Errorf("empty span list leaves %v unattributed, want the whole window", rest)
	}
}

func TestSessionSeed(t *testing.T) {
	seen := make(map[int64]bool)
	for run := int64(-3); run <= 3; run++ {
		for i := 0; i < 50; i++ {
			s := sessionSeed(run, i)
			if s < 0 || s > math.MaxInt64/2 {
				t.Errorf("sessionSeed(%d, %d) = %d out of range", run, i, s)
			}
			if seen[s] {
				t.Errorf("sessionSeed(%d, %d) = %d repeats", run, i, s)
			}
			seen[s] = true
			if s != sessionSeed(run, i) {
				t.Errorf("sessionSeed(%d, %d) not deterministic", run, i)
			}
		}
	}
}
