package main

import (
	"fmt"
	"strings"

	"kbrepair"
)

// A workload is a family of repair sessions. The benchmark generates every
// session's KB as text; the program under test only ever receives that text.
// WORKLOADS.md records each workload's parameters and the layers it is meant
// to move.
type workload struct {
	name string
	// strategy is the questioning strategy's paper name.
	strategy string
	// minSessions sessions always run in an untraced run, whatever
	// --seconds says. They are sized to fill a 30-second run on a 2-core
	// machine, so nearly every run measures the same KBs; they give the p95
	// its 200 samples, and questions_per_session, first_question_ms,
	// setup_s and heap_peak_mb a fixed base that does not depend on how many
	// sessions fit in a run.
	minSessions int
	// kbText returns the KB text generated from a seed.
	kbText func(kbSeed int64) (string, error)
}

var workloads = []workload{
	{
		// Fig. 5a at paper scale: CDD-only, so the chase never fires and
		// the time goes to the Π fast path, the nulled-copy rebuilds in
		// store and homo, and opti-mcd ranking.
		name:        "cdd-large",
		strategy:    "opti-mcd",
		minSessions: 5,
		kbText: synthText(kbrepair.SynthParams{
			NumFacts: 3000, InconsistencyRatio: 0.4, NumCDDs: 20,
		}),
	},
	{
		// Durum Wheat v2: rule constants defeat the fast path and every full
		// Π check chases 269 TGDs; the only workload where extra workers
		// pay. One KB; the user and the engine are seeded per session.
		name:        "durum-random",
		strategy:    "random",
		minSessions: 9,
		kbText:      durumText,
	},
	{
		// Fig. 4b: short questions, half of them in phase two, where each
		// answer re-runs conflict detection with a chase.
		name:        "tgd-interactive",
		strategy:    "opti-mcd",
		minSessions: 40,
		kbText: synthText(kbrepair.SynthParams{
			NumFacts: 800, InconsistencyRatio: 0.25, NumCDDs: 50, NumTGDs: 25,
		}),
	},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// synthText returns a generator of synthetic KBs with the given parameters.
func synthText(p kbrepair.SynthParams) func(int64) (string, error) {
	return func(seed int64) (string, error) {
		p.Seed = seed
		kb, _, err := kbrepair.GenerateSynthetic(p)
		if err != nil {
			return "", fmt.Errorf("generating synthetic KB (seed %d): %w", seed, err)
		}
		return kbrepair.FormatKB(kb), nil
	}
}

// durumText ignores the seed: the Durum Wheat KB is fixed.
func durumText(int64) (string, error) {
	kb, _, err := kbrepair.BuildDurumWheat(2)
	if err != nil {
		return "", fmt.Errorf("building Durum Wheat v2: %w", err)
	}
	return kbrepair.FormatKB(kb), nil
}

// sessionSeed derives the i-th session's seed from the run seed
// (splitmix64), so neighbouring run seeds share no sessions.
func sessionSeed(runSeed int64, i int) int64 {
	z := uint64(runSeed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	// Positive and below 2^62, so it prints and parses as any seed does.
	return int64(z >> 2)
}
