//go:build race

package chase

// raceEnabled reports whether the race detector instruments this build;
// allocation-count assertions are skipped under it (the detector's shadow
// state allocates).
const raceEnabled = true
