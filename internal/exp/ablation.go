package exp

import (
	"fmt"
	"time"

	"kbrepair/internal/core"
	"kbrepair/internal/inquiry"
	"kbrepair/internal/synth"
)

// AblationResult compares an optimization turned on vs. off on the same
// workload (motivated by the §5 optimizations; not a paper figure).
type AblationResult struct {
	Name          string
	OptimizedTime time.Duration
	DisabledTime  time.Duration
	// Speedup is DisabledTime / OptimizedTime.
	Speedup float64
	// FastHits/FullChecks report the Π-RepOpt split in the optimized run.
	FastHits, FullChecks int
}

func ablationKB(seed int64) (*core.KB, error) {
	g, err := synth.Generate(synth.Params{
		Seed:               seed,
		NumFacts:           300,
		InconsistencyRatio: 0.2,
		NumCDDs:            15,
		NumTGDs:            10,
		Depth:              2,
	})
	if err != nil {
		return nil, err
	}
	return g.KB, nil
}

func timeRun(kb *core.KB, seed int64, opts inquiry.Options) (time.Duration, *inquiry.Result, error) {
	start := time.Now()
	res, err := runOne(kb, inquiry.OptiJoin{}, seed, opts)
	if err != nil {
		return 0, nil, err
	}
	if !res.Consistent {
		return 0, nil, fmt.Errorf("ablation run ended inconsistent")
	}
	return time.Since(start), res, nil
}

// RunAblationPiRep measures the effect of the Π-RepOpt fast path.
func RunAblationPiRep(seed int64) (*AblationResult, error) {
	kb, err := ablationKB(seed)
	if err != nil {
		return nil, err
	}
	opt, res, err := timeRun(kb, seed, inquiry.Options{})
	if err != nil {
		return nil, err
	}
	dis, _, err := timeRun(kb, seed, inquiry.Options{DisablePiRepOpt: true})
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		Name:          "pi-rep-opt",
		OptimizedTime: opt,
		DisabledTime:  dis,
		Speedup:       float64(dis) / float64(opt),
		FastHits:      res.FastHits,
		FullChecks:    res.FullChecks,
	}, nil
}

// RunAblationIncremental measures the effect of incremental conflict
// maintenance (UpdateConflicts in phase one, re-scans of only the CDDs an
// answer reaches in phase two) vs. from-scratch recomputation.
func RunAblationIncremental(seed int64) (*AblationResult, error) {
	kb, err := ablationKB(seed)
	if err != nil {
		return nil, err
	}
	opt, res, err := timeRun(kb, seed, inquiry.Options{})
	if err != nil {
		return nil, err
	}
	dis, _, err := timeRun(kb, seed, inquiry.Options{DisableIncremental: true})
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		Name:          "update-conflicts",
		OptimizedTime: opt,
		DisabledTime:  dis,
		Speedup:       float64(dis) / float64(opt),
		FastHits:      res.FastHits,
		FullChecks:    res.FullChecks,
	}, nil
}
