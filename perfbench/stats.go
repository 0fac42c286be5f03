package main

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a p95 from fewer than 200 samples rests on a handful of
// outliers and is refused rather than reported.
const minTail = 10

// errTooFewSamples marks a percentile refused by the tail guard.
var errTooFewSamples = errors.New("too few samples")

// percentile returns the pct-th percentile (0 < pct < 100) of xs, linearly
// interpolated between the two nearest ranks. It refuses, with
// errTooFewSamples, when fewer than minTail samples lie beyond the
// percentile, i.e. when len(xs)*(100-pct)/100 < minTail; integer arithmetic
// keeps the boundary exact (n = 200 passes for p95, n = 199 does not).
func percentile(xs []float64, pct int) (float64, error) {
	if pct <= 0 || pct >= 100 {
		return 0, fmt.Errorf("percentile %d out of (0, 100)", pct)
	}
	n := len(xs)
	if n*(100-pct) < minTail*100 {
		return 0, fmt.Errorf("p%d from %d samples: %w (need %d beyond it)", pct, n, errTooFewSamples, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := float64(pct) / 100 * float64(n-1)
	lo := int(rank)
	if lo == n-1 {
		return s[lo], nil
	}
	frac := rank - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo]), nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// span is one interval on a session's blocking path.
type span struct {
	layer      string
	start, end time.Time
}

// reconcile checks that spans tile part of the window [from, to] without
// overlapping — each starts no earlier than the previous one ends, none
// runs backwards, none leaves the window — and returns the time each layer
// covers plus the remainder no span covers. The covered times and the
// remainder sum to to-from exactly.
func reconcile(spans []span, from, to time.Time) (map[string]time.Duration, time.Duration, error) {
	if to.Before(from) {
		return nil, 0, fmt.Errorf("window ends %v before it starts", from.Sub(to))
	}
	byLayer := make(map[string]time.Duration)
	var covered time.Duration
	prev := from
	for i, sp := range spans {
		switch {
		case sp.end.Before(sp.start):
			return nil, 0, fmt.Errorf("span %d (%s) runs backwards by %v", i, sp.layer, sp.start.Sub(sp.end))
		case sp.start.Before(prev):
			return nil, 0, fmt.Errorf("span %d (%s) overlaps the previous span or the window start by %v", i, sp.layer, prev.Sub(sp.start))
		case sp.end.After(to):
			return nil, 0, fmt.Errorf("span %d (%s) exceeds the window end by %v", i, sp.layer, sp.end.Sub(to))
		}
		d := sp.end.Sub(sp.start)
		byLayer[sp.layer] += d
		covered += d
		prev = sp.end
	}
	return byLayer, to.Sub(from) - covered, nil
}
