package inquiry

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"kbrepair/internal/conflict"
	"kbrepair/internal/core"
	"kbrepair/internal/logic"
	"kbrepair/internal/obs"
	"kbrepair/internal/obs/attr"
	"kbrepair/internal/obs/flight"
)

// Dialogue instrumentation. The per-question delay histogram carries the
// same quantity as Round.Delay / stats.Summarize over Result.Delays(), so a
// metrics snapshot can be reconciled against the experiment tables.
var (
	mInqRuns   = obs.NewCounter("inquiry.runs")
	mQuestions = obs.NewCounter("inquiry.questions")
	mPhase1    = obs.NewCounter("inquiry.phase1_rounds")
	mPhase2    = obs.NewCounter("inquiry.phase2_rounds")
	hDelay     = obs.NewHistogram("inquiry.question_delay_seconds", obs.LatencyBuckets)

	// Live-progress gauges read back by /statusz and the time-series
	// sampler. They describe the current (most recent) run; each Run resets
	// them, so a dashboard watching a kbbench session sees per-run curves.
	gPhase     = obs.NewGauge(obs.StatusPhase)
	gConflicts = obs.NewGauge(obs.StatusConflictsRemaining)
	gAsked     = obs.NewGauge(obs.StatusQuestionsAsked)
)

// Per-CDD attribution families: questions and their computation delay,
// billed to the CDD of the conflict being resolved.
var (
	attrQuestions = attr.NewCounterVec(attr.FamQuestions)
	attrQDelay    = attr.NewHistogramVec(attr.FamQuestionDelay, obs.LatencyBuckets)
)

// statusBegin resets the live-progress gauges for a fresh run.
func statusBegin() {
	gPhase.Set(0)
	gConflicts.Set(0)
	gAsked.Set(0)
}

// statusRound publishes the state of the round about to be asked, and
// marks a time-series row so per-round progress curves line up with
// questions rather than wall-clock ticks.
func statusRound(phase int, conflicts, asked int) {
	gPhase.Set(int64(phase))
	gConflicts.Set(int64(conflicts))
	gAsked.Set(int64(asked))
	if obs.SamplerActive() {
		obs.SampleNow("question")
	}
}

// statusEnd publishes the terminal state (phase 3 = done).
func statusEnd(conflicts int) {
	gPhase.Set(3)
	gConflicts.Set(int64(conflicts))
}

// Options tune an inquiry run.
type Options struct {
	// MaxQuestions caps the dialogue length as a safety net. 0 means
	// 4×|pos(F)| (the theoretical maximum is |pos(F)|; the slack absorbs
	// propagation releases).
	MaxQuestions int
	// MaxValuesPerPosition caps the number of candidate values offered per
	// position (0 = unlimited, the paper's semantics). The fresh
	// existential variable is always kept.
	MaxValuesPerPosition int
	// TrackConflictSeries records the total number of (chase-level)
	// conflicts after every answer — the convergence series of Figure 4.
	// It costs one chase per question.
	TrackConflictSeries bool
	// DisablePiRepOpt turns off the Π-RepOpt fast path (ablation).
	DisablePiRepOpt bool
	// DisableIncremental recomputes conflicts from scratch after each
	// answer (ablation): naive conflicts instead of using UpdateConflicts
	// in phase one, and every CDD's chase-level conflicts instead of only
	// those the answer can affect in phase two and RunBasic.
	DisableIncremental bool
}

// Round records one question/answer exchange.
type Round struct {
	// Phase is 1 (naive conflicts) or 2 (chase-discovered conflicts).
	Phase int
	// QuestionSize is the number of fixes offered.
	QuestionSize int
	// Answer is the fix the user chose.
	Answer core.Fix
	// Replaced is the value Answer overwrote at Answer.Pos.
	Replaced logic.Term
	// ConflictsBefore is the size of the conflict set the question was
	// drawn from (naive conflicts in phase 1, chase conflicts in phase 2).
	ConflictsBefore int
	// SeriesConflicts is the total conflict count after the answer, when
	// Options.TrackConflictSeries is set (-1 otherwise).
	SeriesConflicts int
	// Delay is the time spent computing this question — the paper's
	// delay-time metric (conflict recomputation + question generation).
	Delay time.Duration
}

// Result summarizes a finished inquiry.
type Result struct {
	// Strategy is the name of the strategy used.
	Strategy string
	// Questions is the number of questions asked.
	Questions int
	// Rounds holds the per-question log.
	Rounds []Round
	// InitialNaive is |allconflicts_naive(K)| at the start.
	InitialNaive int
	// InitialTotal is |allconflicts(K)| (chase-level) at the start.
	InitialTotal int
	// Consistent reports the final consistency check.
	Consistent bool
	// Duration is the wall-clock time of the whole run.
	Duration time.Duration
	// AppliedFixes are the user-chosen fixes, in order.
	AppliedFixes core.FixSet
	// FastHits and FullChecks report how the Π-repairability checks split
	// between the Π-RepOpt fast path and full Algorithm 1 runs.
	FastHits, FullChecks int
}

// AvgDelay returns the mean question-generation delay.
func (r *Result) AvgDelay() time.Duration {
	if len(r.Rounds) == 0 {
		return 0
	}
	var total time.Duration
	for _, rd := range r.Rounds {
		total += rd.Delay
	}
	return total / time.Duration(len(r.Rounds))
}

// Delays returns the per-question delays.
func (r *Result) Delays() []time.Duration {
	out := make([]time.Duration, len(r.Rounds))
	for i, rd := range r.Rounds {
		out[i] = rd.Delay
	}
	return out
}

// ConflictSeries returns the conflict counts after each question (requires
// Options.TrackConflictSeries).
func (r *Result) ConflictSeries() []int {
	out := make([]int, len(r.Rounds))
	for i, rd := range r.Rounds {
		out[i] = rd.SeriesConflicts
	}
	return out
}

// Engine drives an inquiry dialogue over a knowledge base. The engine
// mutates the KB's fact store in place; clone the KB first to preserve the
// original.
type Engine struct {
	KB       *core.KB
	Strategy Strategy
	User     User
	Rng      *rand.Rand
	// Pi is the set of immutable positions Π; it grows as questions are
	// answered (and through opti-prop propagation).
	Pi   core.Pi
	Opts Options

	pc         *core.PiChecker
	propagated core.Pi
	// rank is the current question's ranking state (see beginQuestion).
	rank ranking
	// reach maps an answered fact's predicate to the CDDs a chase-level
	// re-scan searches again (see rescan); built on the first re-scan.
	reach *conflict.Reach
	// rescanned, when set (tests only), sees every re-scan's result.
	rescanned func([]*conflict.Conflict)
}

// New builds an engine. A nil strategy defaults to Random; a nil user is an
// error at Run time.
func New(kb *core.KB, strat Strategy, user User, seed int64, opts Options) *Engine {
	if strat == nil {
		strat = Random{}
	}
	e := &Engine{
		KB:         kb,
		Strategy:   strat,
		User:       user,
		Rng:        rand.New(rand.NewSource(seed)),
		Pi:         core.NewPi(),
		Opts:       opts,
		propagated: core.NewPi(),
	}
	e.pc = core.NewPiChecker(kb)
	e.pc.Optimized = !opts.DisablePiRepOpt
	return e
}

// propagate pins a position as immutable on behalf of opti-prop; the pin is
// recorded so it can be released if it ever blocks question generation.
func (e *Engine) propagate(p core.Position) {
	e.Pi.Add(p)
	e.propagated.Add(p)
}

// releasePropagated undoes all propagation pins.
func (e *Engine) releasePropagated() int {
	n := len(e.propagated)
	for p := range e.propagated {
		delete(e.Pi, p)
	}
	e.propagated = core.NewPi()
	return n
}

func (e *Engine) maxQuestions() int {
	if e.Opts.MaxQuestions > 0 {
		return e.Opts.MaxQuestions
	}
	n := 4 * e.KB.Facts.NumPositions()
	if n < 64 {
		n = 64
	}
	return n
}

// ErrUnanswerable is returned when no sound question can be generated for a
// live conflict — which Lemma 4.3 rules out while the Π-repairability
// invariant holds, so seeing it indicates the invariant was broken (e.g. by
// external mutation of the KB mid-inquiry).
var ErrUnanswerable = errors.New("inquiry: no sound question for a live conflict")

// ask generates a sound question for the conflict (positions retrieved by
// strat), presents it to the user, applies the chosen fix and updates Π. It
// returns the offered positions and the round record, whose Delay runs from
// t0 to the question being ready.
//
// qsp is this question's trace span (inert when tracing is off); ask hangs
// its phases under it — inquiry.sound_question for strategy position
// selection plus SOUNDQUESTION (whose Π-batches parent themselves under it
// via the checker's trace parent), inquiry.user_answer for the time the
// user holds the question. The caller ends qsp after the post-answer
// conflict maintenance, so the span's full duration also covers tracker
// updates / re-scans, and the waterfall's unattributed remainder is
// genuine engine overhead.
func (e *Engine) ask(strat Strategy, cs []*conflict.Conflict, x *conflict.Conflict, phase int, qsp obs.Span, t0 time.Time) ([]core.Position, Round, error) {
	// Attribute the Π-checks this question will run — and the question
	// itself — to the CDD whose conflict is being resolved.
	qid := attr.None
	if attr.Enabled() {
		qid = x.AttrID()
		e.pc.SetCause(qid)
	}
	ssp := qsp.Child("inquiry.sound_question")
	e.pc.SetTraceParent(ssp.ID())
	positions := strat.Positions(e, cs, x)
	fixes, err := SoundQuestion(e.KB, e.pc, e.Pi, positions, e.Opts.MaxValuesPerPosition)
	if err != nil {
		ssp.End()
		return nil, Round{}, err
	}
	if len(fixes) == 0 {
		// Propagated pins may have starved the question; release and retry
		// on the conflict's full position set.
		if e.releasePropagated() > 0 {
			positions = x.Positions(e.KB.Facts)
			fixes, err = SoundQuestion(e.KB, e.pc, e.Pi, positions, e.Opts.MaxValuesPerPosition)
			if err != nil {
				ssp.End()
				return nil, Round{}, err
			}
		}
	}
	if len(fixes) == 0 {
		ssp.End()
		return nil, Round{}, fmt.Errorf("%w: conflict %s", ErrUnanswerable, x)
	}
	if ssp.Live() {
		ssp.End(obs.Int("positions", len(positions)), obs.Int("fixes", len(fixes)))
	}
	q := Question{Conflict: x, Fixes: fixes, Phase: phase}
	// Measured on the tracer clock: the value lands in the question span's
	// delay_us attribute, which must be deterministic under an injected clock.
	delay := obs.Now().Sub(t0)
	mQuestions.Inc()
	gAsked.Add(1)
	hDelay.Observe(delay.Seconds())
	attrQuestions.Add(qid, 1)
	attrQDelay.Observe(qid, delay.Seconds())
	if phase == 1 {
		mPhase1.Inc()
	} else {
		mPhase2.Inc()
	}
	flight.Record(flight.KindQuestion, int64(phase), int64(len(fixes)), int64(len(cs)), delay.Microseconds())
	flight.ObserveQuestion(phase, len(cs), delay)
	usp := qsp.Child("inquiry.user_answer")
	f, err := e.User.Choose(e.KB, q)
	if err != nil {
		usp.End()
		return nil, Round{}, fmt.Errorf("user failed on question with %d fixes: %w", len(fixes), err)
	}
	usp.End()
	if !q.Contains(f) {
		return nil, Round{}, fmt.Errorf("user chose %s, which is not in the question", f)
	}
	replaced, err := e.KB.Facts.SetValue(f.Pos, f.Value)
	if err != nil {
		return nil, Round{}, err
	}
	e.Pi.Add(f.Pos)
	recordAnswer(f)
	return positions, Round{
		Phase:           phase,
		QuestionSize:    len(fixes),
		Answer:          f,
		Replaced:        replaced,
		ConflictsBefore: len(cs),
		SeriesConflicts: -1,
		Delay:           delay,
	}, nil
}

// rescan returns allconflicts(K) after the answer rd, given cs, the
// conflicts before it: only the CDDs the answered fact's predicate can
// affect are searched again (conflict.Reach), unless the DisableIncremental
// ablation asks for every CDD. The result equals a fresh
// KB.AllConflictsUnder. parent is the trace span the scan hangs under.
func (e *Engine) rescan(parent uint64, cs []*conflict.Conflict, rd Round) ([]*conflict.Conflict, error) {
	var affected []bool
	if !e.Opts.DisableIncremental {
		if e.reach == nil {
			e.reach = conflict.NewReach(e.KB.TGDs, e.KB.CDDs)
		}
		pred := e.KB.Facts.FactRef(rd.Answer.Pos.Fact).Pred
		affected = e.reach.Affected(pred, rd.Replaced, rd.Answer.Value)
	}
	after, err := e.KB.RescanConflictsUnder(parent, cs, affected)
	if err == nil && e.rescanned != nil {
		e.rescanned(after)
	}
	return after, err
}

// endQuestion closes a question span with the round's summary attributes.
// The components hung under the span plus its unattributed remainder sum
// to its duration by construction (children are closed before the parent,
// all on this goroutine).
func endQuestion(qsp obs.Span, qIdx int, rd Round) {
	if !qsp.Live() {
		return
	}
	qsp.End(obs.Int("q", qIdx),
		obs.Int("phase", rd.Phase),
		obs.Int("conflicts", rd.ConflictsBefore),
		obs.Int("fixes", rd.QuestionSize),
		obs.Int64("delay_us", rd.Delay.Microseconds()))
}

// recordAnswer flight-records a chosen fix. The value is only stringified
// when a recorder is active: the disabled path must not allocate.
func recordAnswer(f core.Fix) {
	if !flight.Active() {
		return
	}
	var isNull int64
	if f.Value.IsNull() {
		isNull = 1
	}
	flight.RecordNote(flight.KindAnswer, int64(f.Pos.Fact), int64(f.Pos.Arg), isNull, f.Value.String())
}

// sessionStart resets the anomaly watchdogs and flight-records the opening
// state of an inquiry session.
func sessionStart(strategy string, facts, naive, total int) {
	flight.SessionBegin()
	if flight.Active() {
		flight.RecordNote(flight.KindSessionStart, int64(facts), int64(naive), int64(total), strategy)
	}
}

// Run executes the two-phase strategy inquiry (Algorithm 4): phase one
// resolves naive conflicts with incremental maintenance; phase two resolves
// conflicts discovered through the chase until the KB is consistent. It
// returns the per-question log and summary metrics.
func (e *Engine) Run() (*Result, error) {
	if e.User == nil {
		return nil, errors.New("inquiry: nil user")
	}
	mInqRuns.Inc()
	statusBegin()
	start := time.Now()
	res := &Result{Strategy: e.Strategy.Name(), InitialTotal: -1}

	// One root span per run; everything the run does hangs under it. Ended
	// exactly once — eagerly with summary attributes on success, by the
	// deferred call on error paths.
	var rootSp obs.Span
	if obs.Tracing() {
		rootSp = obs.StartSpan("inquiry.run",
			obs.Str("strategy", res.Strategy), obs.Int("facts", e.KB.Facts.Len()))
	}
	rootDone := false
	endRoot := func(extra ...obs.Attr) {
		if !rootDone {
			rootDone = true
			rootSp.End(extra...)
		}
	}
	defer endRoot()

	// One chase-level scan opens the run: its direct conflicts are the
	// naive ones (see conflict.NewTrackerOf), so it seeds the phase-one
	// tracker as well as counting allconflicts(K).
	initSp := rootSp.Child("inquiry.init")
	initial, err := e.KB.AllConflictsUnder(initSp.ID())
	if err != nil {
		initSp.End()
		return nil, err
	}
	tracker := conflict.NewTrackerOf(e.KB.Facts, e.KB.Rules, initial)
	res.InitialNaive = tracker.Len()
	res.InitialTotal = len(initial)
	if initSp.Live() {
		initSp.End(obs.Int("naive", res.InitialNaive), obs.Int("total", res.InitialTotal))
	}
	sessionStart(res.Strategy, e.KB.Facts.Len(), res.InitialNaive, res.InitialTotal)

	record := func(rd Round) error {
		res.Rounds = append(res.Rounds, rd)
		res.AppliedFixes = append(res.AppliedFixes, rd.Answer)
		if len(res.Rounds) > e.maxQuestions() {
			return fmt.Errorf("inquiry: exceeded %d questions", e.maxQuestions())
		}
		return nil
	}

	// Phase one: naive conflicts.
	for tracker.Len() > 0 {
		cs := tracker.Conflicts()
		e.beginQuestion(tracker)
		statusRound(1, len(cs), len(res.Rounds))
		qsp := rootSp.Child("inquiry.question")
		psp := qsp.Child("inquiry.pick_conflict")
		x := e.Strategy.PickConflict(e, cs)
		psp.End()
		offered, rd, err := e.ask(e.Strategy, cs, x, 1, qsp, obs.Now())
		if err != nil {
			qsp.End()
			return res, err
		}
		if e.Opts.DisableIncremental {
			tracker = conflict.NewTrackerUnder(qsp.ID(), e.KB.Facts, e.KB.Rules)
		} else {
			tracker.UpdateUnder(qsp.ID(), rd.Answer.Pos.Fact)
		}
		e.Strategy.AfterAnswer(e, tracker.Conflicts(), x, offered, rd.Answer)
		if e.Opts.TrackConflictSeries {
			all, err := e.KB.AllConflictsUnder(qsp.ID())
			if err != nil {
				qsp.End()
				return res, err
			}
			rd.SeriesConflicts = len(all)
		}
		if err := record(rd); err != nil {
			qsp.End()
			return res, err
		}
		endQuestion(qsp, len(res.Rounds), rd)
	}

	// Phase two: conflicts that only appear through the chase. Without
	// TGDs the naive conflicts were all conflicts and this loop exits
	// immediately after one (cheap) check. The post-answer re-scan (needed
	// anyway for AfterAnswer's "involved in other conflicts" test) doubles
	// as the next iteration's conflict set: nothing mutates the KB between
	// the end of one iteration and the top of the next, so reusing it both
	// saves a full chase+scan per question and attributes every scan to the
	// question that made it necessary.
	cs, err := e.KB.AllConflictsUnder(rootSp.ID())
	if err != nil {
		return res, err
	}
	for len(cs) > 0 {
		e.beginQuestion(nil)
		statusRound(2, len(cs), len(res.Rounds))
		qsp := rootSp.Child("inquiry.question")
		psp := qsp.Child("inquiry.pick_conflict")
		x := e.Strategy.PickConflict(e, cs)
		psp.End()
		offered, rd, err := e.ask(e.Strategy, cs, x, 2, qsp, obs.Now())
		if err != nil {
			qsp.End()
			return res, err
		}
		after, err := e.rescan(qsp.ID(), cs, rd)
		if err != nil {
			qsp.End()
			return res, err
		}
		e.Strategy.AfterAnswer(e, after, x, offered, rd.Answer)
		if e.Opts.TrackConflictSeries {
			rd.SeriesConflicts = len(after)
		}
		if err := record(rd); err != nil {
			qsp.End()
			return res, err
		}
		endQuestion(qsp, len(res.Rounds), rd)
		cs = after
	}

	fsp := rootSp.Child("inquiry.final_check")
	ok, err := e.KB.IsConsistentUnder(fsp.ID())
	if err != nil {
		fsp.End()
		return res, err
	}
	if fsp.Live() {
		fsp.End(obs.Bool("consistent", ok))
	}
	statusEnd(0)
	res.Consistent = ok
	res.Questions = len(res.Rounds)
	res.Duration = time.Since(start)
	res.FastHits, res.FullChecks = e.pc.FastHits, e.pc.FullChecks
	endRoot(obs.Int("questions", res.Questions), obs.Bool("consistent", ok))
	return res, nil
}

// RunBasic executes the plain inquiry of Algorithm 3: recompute
// allconflicts(K) (chase-level) each round, pick a conflict, ask a sound
// question over all of its positions, apply the answer, repeat. It ignores
// the engine's strategy and asks as the Random strategy does (a random
// conflict, all of its positions), which is what the oracle soundness
// result (Prop. 4.8) is stated for.
func (e *Engine) RunBasic() (*Result, error) {
	if e.User == nil {
		return nil, errors.New("inquiry: nil user")
	}
	mInqRuns.Inc()
	statusBegin()
	start := time.Now()
	res := &Result{Strategy: "basic"}
	basic := Random{}

	var rootSp obs.Span
	if obs.Tracing() {
		rootSp = obs.StartSpan("inquiry.run",
			obs.Str("strategy", res.Strategy), obs.Int("facts", e.KB.Facts.Len()))
	}
	rootDone := false
	endRoot := func(extra ...obs.Attr) {
		if !rootDone {
			rootDone = true
			rootSp.End(extra...)
		}
	}
	defer endRoot()

	// One chase-level scan opens the run; its direct conflicts are the
	// naive ones (see conflict.NewTrackerOf), and it is the first
	// iteration's conflict set.
	initSp := rootSp.Child("inquiry.init")
	cs, err := e.KB.AllConflictsUnder(initSp.ID())
	if err != nil {
		initSp.End()
		return nil, err
	}
	res.InitialNaive = len(conflict.Direct(cs))
	res.InitialTotal = len(cs)
	if initSp.Live() {
		initSp.End(obs.Int("naive", res.InitialNaive), obs.Int("total", res.InitialTotal))
	}
	sessionStart(res.Strategy, e.KB.Facts.Len(), res.InitialNaive, res.InitialTotal)

	// As in Run's phase two, each iteration ends with the re-scan the next
	// iteration needs, attributed to the question just answered.
	for len(cs) > 0 {
		statusRound(1, len(cs), len(res.Rounds))
		qsp := rootSp.Child("inquiry.question")
		// Unlike Run, the question's delay includes picking the conflict.
		t0 := obs.Now()
		psp := qsp.Child("inquiry.pick_conflict")
		x := basic.PickConflict(e, cs)
		psp.End()
		_, rd, err := e.ask(basic, cs, x, 1, qsp, t0)
		if err != nil {
			qsp.End()
			return res, err
		}
		res.Rounds = append(res.Rounds, rd)
		res.AppliedFixes = append(res.AppliedFixes, rd.Answer)
		if len(res.Rounds) > e.maxQuestions() {
			qsp.End()
			return res, fmt.Errorf("inquiry: exceeded %d questions", e.maxQuestions())
		}
		after, err := e.rescan(qsp.ID(), cs, rd)
		if err != nil {
			qsp.End()
			return res, err
		}
		endQuestion(qsp, len(res.Rounds), rd)
		cs = after
	}
	fsp := rootSp.Child("inquiry.final_check")
	ok, err := e.KB.IsConsistentUnder(fsp.ID())
	if err != nil {
		fsp.End()
		return res, err
	}
	if fsp.Live() {
		fsp.End(obs.Bool("consistent", ok))
	}
	statusEnd(0)
	res.Consistent = ok
	res.Questions = len(res.Rounds)
	res.Duration = time.Since(start)
	res.FastHits, res.FullChecks = e.pc.FastHits, e.pc.FullChecks
	endRoot(obs.Int("questions", res.Questions), obs.Bool("consistent", ok))
	return res, nil
}
