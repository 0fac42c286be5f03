// Package sched is the parallel-efficiency layer of the observability
// stack: worker-lane timelines for every par fan-out, a runtime/metrics
// poller, and the /schedz debug endpoint. It answers the question the
// span tracer and counters cannot — where do the cores idle — by
// recording, per fan-out, which lane (worker goroutine slot) ran which
// task over which microsecond interval.
//
// Lane data is observability-only. It is kept in its own ring, never in
// the trace stream, so the pipeline's byte-identical-output-across-worker-
// counts invariant is untouched: enabling sched recording changes no
// repair output and no trace byte. Timestamps are read from the
// injectable tracer clock (obs.Now) so exported lanes line up with span
// rows in Chrome trace output.
//
// Like the flight recorder and attr families, the disabled path is one
// atomic load and zero allocations: Begin returns a nil *Fanout, and all
// methods are nil-receiver no-ops, so par.DoNamed pays nothing until a CLI
// opts in (-sched, -pprof, or a kbbench report run).
package sched

import (
	"sort"
	"sync"
	"sync/atomic"

	"kbrepair/internal/obs"
)

// DefaultCapacity is the interval-ring size Enable uses when given 0:
// 16Ki intervals cover hundreds of recent fan-outs at the pipeline's
// task granularity (one homomorphism search or rule firing per task).
const DefaultCapacity = 1 << 14

// Interval is one completed task execution on a lane: the record behind
// per-lane rows in Chrome trace exports and the /schedz timeline.
type Interval struct {
	Fanout  uint64 `json:"fanout"`
	Label   string `json:"label"`
	Lane    int    `json:"lane"`
	Task    int    `json:"task"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// LabelAgg aggregates every fan-out that ran under one label (one call
// site, such as "conflict.scan"). WorkerUS is the capacity —
// workers × window — so BusyUS/WorkerUS is the label's utilization.
// TopWallUS counts only non-nested fan-outs: nested ones (started from a
// task of another fan-out) overlap their parent's window and must not be
// double-counted against total wall time.
type LabelAgg struct {
	Label          string `json:"label"`
	Fanouts        int64  `json:"fanouts"`
	NestedFanouts  int64  `json:"nested_fanouts,omitempty"`
	AbortedFanouts int64  `json:"aborted_fanouts,omitempty"`
	Tasks          int64  `json:"tasks"`
	WallUS         int64  `json:"wall_us"`
	TopWallUS      int64  `json:"top_wall_us"`
	BusyUS         int64  `json:"busy_us"`
	WorkerUS       int64  `json:"worker_us"`
	MaxWorkers     int    `json:"max_workers"`
}

// Snapshot is the recorder's exported state: what /schedz serves, what a
// debug bundle's sched.json holds, and what -sched writes at exit.
type Snapshot struct {
	Enabled           bool       `json:"enabled"`
	FanoutsTotal      uint64     `json:"fanouts_total"`
	OpenFanouts       int64      `json:"open_fanouts"`
	AbortedFanouts    int64      `json:"aborted_fanouts"`
	IntervalsTotal    uint64     `json:"intervals_total"`
	IntervalsRetained int        `json:"intervals_retained"`
	Labels            []LabelAgg `json:"labels,omitempty"`
	Intervals         []Interval `json:"intervals,omitempty"`
}

// Recorder holds the interval ring and per-label aggregates. All methods
// are safe for concurrent use; the hot path (one append per task) takes
// one short mutex hold, matching the flight recorder's design point —
// tasks here are coarse (whole homomorphism searches), so a contended
// ring append is noise.
type Recorder struct {
	fanouts   atomic.Uint64 // fan-out id source
	active    atomic.Int64  // fan-outs begun and not yet ended (nesting detector)
	open      atomic.Int64  // same, but only decremented by End — balance check
	mu        sync.Mutex
	intervals []Interval // ring storage
	next      int
	wrapped   bool
	total     uint64
	aborted   int64
	labels    map[string]*LabelAgg
}

// NewRecorder builds a recorder with the given ring capacity (0 means
// DefaultCapacity).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{
		intervals: make([]Interval, capacity),
		labels:    make(map[string]*LabelAgg),
	}
}

// current is the process-wide recorder; nil means disabled, making the
// disabled path of Begin a single atomic load.
var current atomic.Pointer[Recorder]

// Enabled reports whether lane recording is on.
func Enabled() bool { return current.Load() != nil }

// Enable installs a fresh process-wide recorder with the given ring
// capacity (0 = DefaultCapacity) and returns it. Any previous recorder
// and its data are dropped.
func Enable(capacity int) *Recorder {
	r := NewRecorder(capacity)
	current.Store(r)
	return r
}

// Disable turns lane recording off and drops the recorder.
func Disable() { current.Store(nil) }

// Current returns the process-wide recorder, or nil when disabled.
func Current() *Recorder { return current.Load() }

// Fanout is one in-flight par.DoNamed dispatch. A nil *Fanout (recording
// disabled) is valid: every method is a no-op.
type Fanout struct {
	r       *Recorder
	id      uint64
	label   string
	tasks   int
	workers int
	nested  bool
	startUS int64
	done    atomic.Int64
	busyUS  atomic.Int64
}

// nowUS reads the injectable tracer clock in microseconds, so lane
// intervals share a timebase with span records.
func nowUS() int64 { return obs.Now().UnixMicro() }

// Begin opens a fan-out of tasks over workers lanes under label, or
// returns nil when recording is disabled. Pair with End (defer it so
// panic propagation out of the fan-out still balances the books).
func Begin(label string, tasks, workers int) *Fanout {
	r := current.Load()
	if r == nil {
		return nil
	}
	f := &Fanout{r: r, label: label, tasks: tasks, workers: workers}
	f.nested = r.active.Add(1) > 1
	r.open.Add(1)
	f.id = r.fanouts.Add(1)
	f.startUS = nowUS()
	return f
}

// Start stamps the beginning of one task's busy interval. On a nil
// receiver it returns 0 without touching the clock.
func (f *Fanout) Start() int64 {
	if f == nil {
		return 0
	}
	return nowUS()
}

// Task records one completed task: lane is the worker slot (0-based, 0
// on the inline path), task the task index, startUS the matching Start
// stamp. Safe to call from any worker goroutine.
func (f *Fanout) Task(lane, task int, startUS int64) {
	if f == nil {
		return
	}
	end := nowUS()
	f.done.Add(1)
	f.busyUS.Add(end - startUS)
	r := f.r
	r.mu.Lock()
	r.intervals[r.next] = Interval{
		Fanout: f.id, Label: f.label, Lane: lane, Task: task,
		StartUS: startUS, EndUS: end,
	}
	r.next++
	if r.next == len(r.intervals) {
		r.next = 0
		r.wrapped = true
	}
	r.total++
	r.mu.Unlock()
}

// End closes the fan-out and folds it into the per-label aggregates. A
// fan-out whose recorded task count falls short of its planned count
// (a panic on the inline path skips the remaining tasks) is counted as
// aborted rather than left open, so Begin/End stay balanced on every
// exit path.
func (f *Fanout) End() {
	if f == nil {
		return
	}
	end := nowUS()
	r := f.r
	r.active.Add(-1)
	r.open.Add(-1)
	wall := end - f.startUS
	done := f.done.Load()
	r.mu.Lock()
	a := r.labels[f.label]
	if a == nil {
		a = &LabelAgg{Label: f.label}
		r.labels[f.label] = a
	}
	a.Fanouts++
	a.Tasks += done
	a.WallUS += wall
	if f.nested {
		a.NestedFanouts++
	} else {
		a.TopWallUS += wall
	}
	a.BusyUS += f.busyUS.Load()
	a.WorkerUS += int64(f.workers) * wall
	if f.workers > a.MaxWorkers {
		a.MaxWorkers = f.workers
	}
	if done != int64(f.tasks) {
		a.AbortedFanouts++
		r.aborted++
	}
	r.mu.Unlock()
}

// Snapshot copies the recorder's state: aggregates sorted by label,
// intervals oldest-first.
func (r *Recorder) Snapshot() *Snapshot {
	s := &Snapshot{
		Enabled:      true,
		FanoutsTotal: r.fanouts.Load(),
		OpenFanouts:  r.open.Load(),
	}
	r.mu.Lock()
	s.IntervalsTotal = r.total
	s.AbortedFanouts = r.aborted
	if r.wrapped {
		s.Intervals = make([]Interval, 0, len(r.intervals))
		s.Intervals = append(s.Intervals, r.intervals[r.next:]...)
		s.Intervals = append(s.Intervals, r.intervals[:r.next]...)
	} else {
		s.Intervals = append([]Interval(nil), r.intervals[:r.next]...)
	}
	s.Labels = make([]LabelAgg, 0, len(r.labels))
	for _, a := range r.labels {
		s.Labels = append(s.Labels, *a)
	}
	r.mu.Unlock()
	s.IntervalsRetained = len(s.Intervals)
	sort.Slice(s.Labels, func(i, j int) bool { return s.Labels[i].Label < s.Labels[j].Label })
	return s
}

// Capture snapshots the process-wide recorder, or returns nil when
// recording is disabled — the bundle-section contract (nil section is
// omitted), shared with attr.Capture.
func Capture() *Snapshot {
	r := current.Load()
	if r == nil {
		return nil
	}
	return r.Snapshot()
}
