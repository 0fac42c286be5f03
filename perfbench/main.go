// Command perfbench is the outside-in benchmark of whole repair sessions.
//
// A closed loop with one client runs one session at a time: it generates a
// KB as text, sets it up (parse, fact store, validated KB, inquiry engine),
// lets a simulated user with zero think time, seeded from --seed, answer
// every question until the KB is consistent, and checks the outcome. The
// engine is timed only from outside, through the Strategy and User plug
// points.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload cdd-large --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// runs the same sessions twice, untraced and then with the program's obs
// timers on and the benchmark's spans recorded, and reports the per-layer
// breakdown. The last line of standard output is one JSON object; the lines
// before it list every metric with its unit. The exit code is 1 when any
// session fails its checks, 2 on bad flags.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"kbrepair/internal/obs"
)

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "run seed: it seeds every session's user and engine")
	seconds := fs.Int("seconds", 30, "how long to keep starting sessions")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	w, err := workloadByName(*name)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("want --seconds >= 1 and --trace 0 or 1, got %d and %d", *seconds, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if rep.Failed > 0 {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes    []string // printed before the metric table
	failures []string // printed to standard error
}

func (r *report) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// write prints every metric by name with its unit, then the JSON line.
func (r *report) write(out io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintln(out, n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-34s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// runner drives the sessions of one benchmark run. Session i repairs the
// KB generated from seed i, answered by a user (and tie-broken by an engine)
// seeded from the run seed and i: every run repairs the same KB sequence, so
// the spread between runs measures the program, not how hard one run's KBs
// happened to be, while each run seed still asks its own questions.
type runner struct {
	w       workload
	runSeed int64
	texts   map[int]string
	hashes  map[int]string // session index → repaired-KB hash of its first run
	rep     *report
}

func (rn *runner) text(i int) (string, error) {
	if t, ok := rn.texts[i]; ok {
		return t, nil
	}
	t, err := rn.w.kbText(int64(i))
	if err != nil {
		return "", err
	}
	rn.texts[i] = t
	return t, nil
}

// session runs session i and applies the cross-run check: a repeated
// session must repair its KB to byte-identical text.
func (rn *runner) session(i int, traced bool) *session {
	rn.rep.Attempted++
	seed := sessionSeed(rn.runSeed, i)
	text, err := rn.text(i)
	var s *session
	if err == nil {
		s, err = runSession(rn.w, text, i, seed, traced)
	}
	if err == nil {
		if prev, ok := rn.hashes[i]; !ok {
			rn.hashes[i] = s.hash
		} else if prev != s.hash {
			err = fmt.Errorf("repaired KB differs from an earlier run of the same session (%.12s vs %.12s)", s.hash, prev)
		}
	}
	if err != nil {
		rn.rep.Failed++
		rn.rep.failures = append(rn.rep.failures, fmt.Sprintf("session %d (seed %d, traced=%v): %v", i, seed, traced, err))
		return nil
	}
	return s
}

// pass runs sessions 0, 1, … until at least min ran and the budget is
// spent.
func (rn *runner) pass(budget time.Duration, min int) []*session {
	var out []*session
	start := time.Now()
	for i := 0; i < min || time.Since(start) < budget; i++ {
		if s := rn.session(i, false); s != nil {
			out = append(out, s)
		}
	}
	return out
}

func run(w workload, seed int64, budget time.Duration, traced bool) (*report, error) {
	rep := &report{Metrics: make(map[string]metric)}
	rn := &runner{w: w, runSeed: seed, texts: make(map[int]string), hashes: make(map[int]string), rep: rep}
	var err error
	if traced {
		// Untraced then traced over the same sessions: the second pass
		// re-checks every repaired KB against the first. Two sessions at
		// least, so the retained heap has a slope.
		plain := rn.pass(budget/2, 2)
		obs.SetEnabled(true)
		var tr []*session
		for _, p := range plain {
			if t := rn.session(p.index, true); t != nil {
				tr = append(tr, t)
			}
		}
		obs.SetEnabled(false)
		err = perLayer(rep, plain, tr)
	} else {
		sessions := rn.pass(budget, w.minSessions)
		// Repeat the first session: its repaired KB must not change. Every
		// run repeats it, so its timings count like any other session's.
		if s := rn.session(0, false); s != nil {
			sessions = append(sessions, s)
		}
		err = endToEnd(rep, sessions, w.minSessions)
	}
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "FAIL", f)
	}
	if err != nil {
		return nil, err
	}
	rep.Correct = rep.Failed == 0
	// error_rate is a note, not a metric: it reads 0 on a healthy run, and
	// the JSON line carries it as attempted and failed.
	rep.notes = append(rep.notes, fmt.Sprintf("error_rate %.4g ratio (%d of %d sessions failed)",
		float64(rep.Failed)/float64(rep.Attempted), rep.Failed, rep.Attempted))
	return rep, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd fills the user-visible metrics from the untraced sessions.
func endToEnd(rep *report, ss []*session, minSessions int) error {
	if len(ss) == 0 {
		return errors.New("no session completed")
	}
	var waits, firsts, setups, heapPeaks []float64
	var questions, baseQuestions int
	var wall time.Duration
	var alloc uint64
	for i, s := range ss {
		for _, d := range s.waits {
			waits = append(waits, ms(d))
		}
		questions += s.questions
		wall += s.wall
		alloc += s.allocBytes
		if i >= minSessions {
			continue
		}
		// The figures that need no more than the base sessions use only
		// them, so how many sessions fit in --seconds cannot move them.
		for _, d := range s.firsts {
			firsts = append(firsts, ms(d))
		}
		for _, d := range s.setupWalls {
			setups = append(setups, d.Seconds())
		}
		baseQuestions += s.questions
		heapPeaks = append(heapPeaks, float64(s.heapPeak)/1e6)
	}
	if len(ss) < minSessions || questions == 0 {
		return fmt.Errorf("only %d sessions with %d questions completed", len(ss), questions)
	}
	p50, err := percentile(waits, 50)
	if err != nil {
		return fmt.Errorf("question_wait_p50_ms: %w", err)
	}
	p95, err := percentile(waits, 95)
	if err != nil {
		return fmt.Errorf("question_wait_p95_ms: %w", err)
	}
	rep.set("question_wait_p50_ms", p50, "ms")
	rep.set("question_wait_p95_ms", p95, "ms")
	rep.notes = append(rep.notes, fmt.Sprintf("question_wait_p95_ms from %d samples over %d sessions", len(waits), len(ss)))
	rep.set("first_question_ms", median(firsts), "ms")
	rep.set("questions_per_s", float64(questions)/wall.Seconds(), "1/s")
	rep.set("setup_s", median(setups), "s")
	rep.set("questions_per_session", float64(baseQuestions)/float64(minSessions), "count")
	rep.set("alloc_mb_per_question", float64(alloc)/1e6/float64(questions), "MB")
	rep.set("heap_peak_mb", median(heapPeaks), "MB")
	return nil
}

// Counters reported per question, by their obs registry names.
var perQuestionCounters = []string{
	"conflict.scans", "conflict.tracker_updates",
	"core.pi_fast_hits", "core.pi_full_checks",
	"store.facts_added", "store.index_lookups", "store.value_updates",
	"chase.runs", "chase.rounds", "chase.rule_firings", "chase.triggers_deferred", "chase.nulls_invented",
	"homo.searches", "homo.backtrack_nodes", "homo.index_probes",
	"par.tasks",
}

// Histogram sums reported as seconds per question: metric name → registry name.
var perQuestionTimers = [][2]string{
	{"conflict.detect_s", "conflict.detect_seconds"},
	{"conflict.update_s", "conflict.update_seconds"},
	{"core.pi_check_s", "core.pi_check_seconds"},
	{"chase.run_s", "chase.run_seconds"},
	{"homo.match_s", "homo.match_seconds"},
	{"par.queue_wait_s", "par.queue_wait_seconds"},
}

// perLayer fills the per-layer metrics from the traced sessions, with the
// untraced pass over the same seeds as the overhead baseline.
func perLayer(rep *report, plain, tr []*session) error {
	if len(tr) == 0 || len(tr) != len(plain) {
		return fmt.Errorf("%d of %d sessions completed traced", len(tr), len(plain))
	}
	var questions, fixes, waits int
	var wall, plainWall, unattrib time.Duration
	var gcs uint64
	layers := make(map[string]time.Duration)
	setupLayer := make(map[string][]float64)
	obsSum := make(map[string]float64)
	for i, s := range tr {
		questions += s.questions
		fixes += s.fixes
		waits += len(plain[i].waits)
		wall += s.wall
		plainWall += plain[i].wall
		unattrib += s.unattrib
		gcs += s.gcCycles
		for l, d := range s.layers {
			layers[l] += d
		}
		for _, sp := range s.setupSpans {
			setupLayer[sp.layer] = append(setupLayer[sp.layer], ms(sp.end.Sub(sp.start)))
		}
		for n, v := range s.obsDelta {
			obsSum[n] += v
		}
	}
	if questions == 0 {
		return errors.New("traced sessions asked no questions")
	}
	q := float64(questions)
	sessions := float64(len(tr))

	for _, l := range setupLayers {
		rep.set(l+"_ms", median(setupLayer[l]), "ms")
	}
	for _, l := range []string{lPick, lPositions, lSound, lUser, lMaintain, lAfterAnswer} {
		rep.set(l+"_ms", ms(layers[l])/q, "ms")
	}
	rep.set(lInit+"_ms", ms(layers[lInit])/sessions, "ms")
	rep.set(lFinal+"_ms", ms(layers[lFinal])/sessions, "ms")
	rep.set("inquiry.sound_question_share", float64(layers[lSound])/float64(wall), "ratio")
	rep.set("inquiry.unattributed_share", float64(unattrib)/float64(wall), "ratio")
	rep.set("inquiry.fixes_per_question", float64(fixes)/q, "count")
	rep.set("inquiry.wait_samples", float64(waits), "count")

	for _, n := range perQuestionCounters {
		rep.set(n, obsSum[n]/q, "count")
	}
	for _, t := range perQuestionTimers {
		rep.set(t[0], obsSum[t[1]]/q, "s")
	}
	if att := obsSum["core.pi_fast_hits"] + obsSum["core.pi_full_checks"]; att > 0 {
		rep.set("core.pi_fast_share", obsSum["core.pi_fast_hits"]/att, "ratio")
	} else {
		rep.set("core.pi_fast_share", 0, "ratio")
	}
	rep.set("runtime.gc_cycles", float64(gcs)/q, "count")
	// Growth of the collected heap from one session to the next: what a
	// session leaves behind in process-wide state (caches keyed by rule).
	if n := len(plain); n > 1 {
		grown := float64(plain[n-1].heapBase) - float64(plain[0].heapBase)
		rep.set("runtime.retained_mb_per_session", grown/1e6/float64(n-1), "MB")
	}
	rep.set("obs.trace_overhead_pct", 100*(float64(wall)/float64(plainWall)-1), "%")
	rep.notes = append(rep.notes, fmt.Sprintf("traced %d sessions, %d questions; per-question counts unless the unit says otherwise", len(tr), questions))
	return nil
}
