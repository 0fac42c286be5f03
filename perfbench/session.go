package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"kbrepair"
	"kbrepair/internal/conflict"
	"kbrepair/internal/core"
	"kbrepair/internal/inquiry"
	"kbrepair/internal/obs"
	"kbrepair/internal/parser"
)

// probes is how many extra engines each session sets up and runs only to
// their first question. first_question_ms is the median over these probes
// alone: a first question costs what the engine's tie-breaks make it, so
// the probes use a fixed panel of seeds — probe j of session i gets the same
// seed in every run — and the figure moves with the program, not with
// --seed. They also give setup_s more samples.
const probes = 4

// errProbeDone ends a probe's Run at its first question.
var errProbeDone = errors.New("probe answered")

// Set-up layers, in call order.
var setupLayers = []string{"parser.parse", "store.build", "core.new_kb", "inquiry.new"}

// setup is one timed set-up of a session: parse, fact store, validated KB,
// engine construction (which precompiles the homomorphism plans).
type setup struct {
	kb     *core.KB
	engine *inquiry.Engine
	wall   time.Duration
	spans  []span
}

func newSetup(text, strategy string, seed int64, user inquiry.User) (*setup, error) {
	strat, err := inquiry.ByName(strategy)
	if err != nil {
		return nil, err
	}
	s := &setup{}
	t0 := time.Now()
	doc, err := parser.Parse(text)
	t1 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	st, err := doc.Store()
	t2 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.kb, err = core.NewKB(st, doc.TGDs, doc.CDDs)
	t3 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("kb: %w", err)
	}
	s.engine = inquiry.New(s.kb, strat, user, seed, inquiry.Options{})
	t4 := time.Now()
	s.wall = t4.Sub(t0)
	s.spans = []span{{setupLayers[0], t0, t1}, {setupLayers[1], t1, t2}, {setupLayers[2], t2, t3}, {setupLayers[3], t3, t4}}
	return s, nil
}

// Blocking-path layers of a session's Run, as the benchmark sees them from
// the calls the engine makes into the wrapped Strategy and User.
const (
	lInit        = "conflict.init"          // Run start → first PickConflict
	lPick        = "inquiry.pick_conflict"  // Strategy.PickConflict
	lPositions   = "inquiry.positions"      // Strategy.Positions
	lSound       = "inquiry.sound_question" // Positions return → Choose call
	lUser        = "inquiry.user_answer"    // User.Choose (the simulated user)
	lMaintain    = "conflict.maintain"      // Choose return → AfterAnswer call
	lAfterAnswer = "inquiry.after_answer"   // Strategy.AfterAnswer
	lFinal       = "chase.final_check"      // last AfterAnswer return → Run return
)

// session is the record of one repair session.
type session struct {
	index      int
	setupWalls []time.Duration
	setupSpans []span // every set-up's spans
	questions  int
	fixes      int             // fixes offered over all questions
	waits      []time.Duration // per question: Run start or previous answer → next question
	firsts     []time.Duration // Run start → first question, per probe
	wall       time.Duration   // Run wall time
	allocBytes uint64
	heapBase   uint64 // live heap after the collection before set-up
	heapPeak   uint64 // highest live heap seen at a question
	hash       string // SHA-256 of the repaired KB's text
	gcCycles   uint64

	// Traced sessions only.
	layers   map[string]time.Duration
	unattrib time.Duration
	obsDelta map[string]float64
}

// recorder timestamps every call the engine makes into the strategy and the
// user. The untraced run records only what
// the question waits need; the traced run records the full span sequence.
type recorder struct {
	traced     bool
	runStart   time.Time
	lastAnswer time.Time // Run start, then each Choose return
	posEnd     time.Time
	afterEnd   time.Time
	questions  int
	fixes      int
	waits      []time.Duration
	heapPeak   uint64
	spans      []span
}

func (r *recorder) start() {
	r.runStart = time.Now()
	r.lastAnswer = r.runStart
	r.afterEnd = r.runStart
}

func (r *recorder) add(layer string, from, to time.Time) {
	r.spans = append(r.spans, span{layer, from, to})
}

// user answers as the paper's simulated user, with zero think time.
func (r *recorder) user(sim inquiry.User) inquiry.User {
	return inquiry.FuncUser(func(kb *core.KB, q inquiry.Question) (core.Fix, error) {
		t0 := time.Now()
		r.waits = append(r.waits, t0.Sub(r.lastAnswer))
		r.questions++
		r.fixes += len(q.Fixes)
		if h, _, _ := readRuntime(); h > r.heapPeak {
			r.heapPeak = h
		}
		f, err := sim.Choose(kb, q)
		t1 := time.Now()
		if r.traced {
			r.add(lSound, r.posEnd, t0)
			r.add(lUser, t0, t1)
		}
		r.lastAnswer = t1
		return f, err
	})
}

// tracedStrategy wraps the session's strategy so the traced run sees each
// call.
type tracedStrategy struct {
	inner inquiry.Strategy
	r     *recorder
}

func (s tracedStrategy) Name() string { return s.inner.Name() }

func (s tracedStrategy) PickConflict(e *inquiry.Engine, cs []*conflict.Conflict) *conflict.Conflict {
	t0 := time.Now()
	x := s.inner.PickConflict(e, cs)
	t1 := time.Now()
	if s.r.questions == 0 {
		s.r.add(lInit, s.r.runStart, t0)
	}
	s.r.add(lPick, t0, t1)
	return x
}

func (s tracedStrategy) Positions(e *inquiry.Engine, cs []*conflict.Conflict, x *conflict.Conflict) []core.Position {
	t0 := time.Now()
	ps := s.inner.Positions(e, cs, x)
	t1 := time.Now()
	s.r.add(lPositions, t0, t1)
	s.r.posEnd = t1
	return ps
}

func (s tracedStrategy) AfterAnswer(e *inquiry.Engine, cs []*conflict.Conflict, x *conflict.Conflict, offered []core.Position, chosen core.Fix) {
	t0 := time.Now()
	s.inner.AfterAnswer(e, cs, x, offered, chosen)
	t1 := time.Now()
	s.r.add(lMaintain, s.r.lastAnswer, t0)
	s.r.add(lAfterAnswer, t0, t1)
	s.r.afterEnd = t1
}

// runtimeSamples is reused so a read allocates nothing; sessions run on one
// goroutine.
var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/live:bytes"}, {Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"},
}

// readRuntime returns the live heap as of the last collection, the bytes
// allocated so far and the collections completed so far.
func readRuntime() (live, allocs, gcs uint64) {
	metrics.Read(runtimeSamples)
	return runtimeSamples[0].Value.Uint64(), runtimeSamples[1].Value.Uint64(), runtimeSamples[2].Value.Uint64()
}

// probe sets the KB up and runs the engine to its first question.
func (s *session) probe(w workload, text string, seed int64) error {
	r := &recorder{}
	su, err := s.setUp(w, text, seed, r.user(inquiry.FuncUser(func(*core.KB, inquiry.Question) (core.Fix, error) {
		return core.Fix{}, errProbeDone
	})))
	if err != nil {
		return err
	}
	r.start()
	if _, err := su.engine.Run(); !errors.Is(err, errProbeDone) {
		return fmt.Errorf("probe (seed %d) ended before its first question: %v", seed, err)
	}
	s.firsts = append(s.firsts, r.waits[0])
	return nil
}

// setUp runs and records one timed set-up.
func (s *session) setUp(w workload, text string, seed int64, user inquiry.User) (*setup, error) {
	su, err := newSetup(text, w.strategy, seed, user)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	s.setupWalls = append(s.setupWalls, su.wall)
	s.setupSpans = append(s.setupSpans, su.spans...)
	return su, nil
}

// runSession runs the probes of session i, then sets the KB up once more,
// repairs it to consistency with a user and engine seeded by seed, and
// checks the outcome. A non-nil error fails the session.
func runSession(w workload, text string, i int, seed int64, traced bool) (*session, error) {
	// Start every session from a collected heap, as a fresh process would,
	// so the previous session's garbage is not billed to this one.
	runtime.GC()
	s := &session{index: i}
	s.heapBase, _, _ = readRuntime()
	for j := 0; j < probes; j++ {
		if err := s.probe(w, text, sessionSeed(int64(i), j)); err != nil {
			return s, err
		}
	}
	r := &recorder{traced: traced}
	su, err := s.setUp(w, text, seed, r.user(inquiry.NewSimulatedUser(seed)))
	if err != nil {
		return s, err
	}
	orig := su.kb.Clone()
	if traced {
		su.engine.Strategy = tracedStrategy{inner: su.engine.Strategy, r: r}
	}

	var before obs.Snapshot
	if traced {
		before = obs.Default().Snapshot()
	}
	_, alloc0, gc0 := readRuntime()
	r.start()
	res, err := su.engine.Run()
	end := time.Now()
	_, alloc1, gc1 := readRuntime()
	if traced {
		s.obsDelta = snapshotDelta(before, obs.Default().Snapshot())
	}

	s.wall = end.Sub(r.runStart)
	s.questions, s.fixes, s.waits, s.heapPeak = r.questions, r.fixes, r.waits, r.heapPeak
	s.allocBytes, s.gcCycles = alloc1-alloc0, gc1-gc0
	if err != nil {
		return s, fmt.Errorf("run: %w", err)
	}
	if !res.Consistent {
		return s, fmt.Errorf("run ended inconsistent after %d questions", res.Questions)
	}
	if res.Questions != r.questions {
		return s, fmt.Errorf("engine reports %d questions, the user saw %d", res.Questions, r.questions)
	}
	if ok, err := core.IsCFix(orig, res.AppliedFixes); err != nil || !ok {
		return s, fmt.Errorf("applied fixes are not a c-fix of the original KB (ok=%v, err=%v)", ok, err)
	}
	sum := sha256.Sum256([]byte(kbrepair.FormatKB(su.kb)))
	s.hash = hex.EncodeToString(sum[:])

	if traced {
		if r.questions > 0 {
			r.add(lFinal, r.afterEnd, end)
		}
		s.layers, s.unattrib, err = reconcile(r.spans, r.runStart, end)
		if err != nil {
			return s, fmt.Errorf("span reconciliation: %w", err)
		}
	}
	return s, nil
}

// snapshotDelta returns after−before for every counter and every
// histogram's sum.
func snapshotDelta(before, after obs.Snapshot) map[string]float64 {
	d := make(map[string]float64, len(after.Counters)+len(after.Histograms))
	for n, v := range after.Counters {
		d[n] = float64(v - before.Counters[n])
	}
	for n, h := range after.Histograms {
		d[n] = h.Sum - before.Histograms[n].Sum
	}
	return d
}
