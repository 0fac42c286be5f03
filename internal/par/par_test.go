package par

import (
	"flag"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kbrepair/internal/obs"
	"kbrepair/internal/obs/sched"
)

// withWorkers pins the pool size for the duration of a test.
func withWorkers(t *testing.T, n int) {
	t.Helper()
	prev := workers.Load()
	SetWorkers(n)
	t.Cleanup(func() { workers.Store(prev); gWorkers.Set(int64(Workers())) })
}

func TestWorkersDefault(t *testing.T) {
	withWorkers(t, 0)
	if got, want := Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Workers() = %d, want GOMAXPROCS %d", got, want)
	}
}

func TestSetWorkers(t *testing.T) {
	withWorkers(t, 0)
	if got := SetWorkers(5); got != 5 {
		t.Errorf("SetWorkers(5) = %d", got)
	}
	if got := Workers(); got != 5 {
		t.Errorf("Workers() = %d after SetWorkers(5)", got)
	}
	if got := SetWorkers(-1); got != runtime.GOMAXPROCS(0) {
		t.Errorf("SetWorkers(-1) = %d, want default", got)
	}
	if gWorkers.Value() != int64(Workers()) {
		t.Errorf("par.workers gauge = %d, want %d", gWorkers.Value(), Workers())
	}
}

func TestDoRunsEveryTaskExactlyOnce(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		withWorkers(t, w)
		const n = 100
		var counts [n]atomic.Int32
		DoNamed("test.do", n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", w, i, c)
			}
		}
	}
}

func TestDoZeroAndNegative(t *testing.T) {
	ran := false
	DoNamed("test.do", 0, func(int) { ran = true })
	DoNamed("test.do", -3, func(int) { ran = true })
	if ran {
		t.Error("DoNamed ran tasks for n <= 0")
	}
}

func TestMapIsDeterministicAcrossWorkerCounts(t *testing.T) {
	sq := func(i int) int { return i * i }
	withWorkers(t, 1)
	seq := MapNamed("test.map", 64, sq)
	withWorkers(t, 8)
	parl := MapNamed("test.map", 64, sq)
	if len(seq) != len(parl) {
		t.Fatalf("length mismatch: %d vs %d", len(seq), len(parl))
	}
	for i := range seq {
		if seq[i] != parl[i] {
			t.Fatalf("slot %d: %d (workers=1) vs %d (workers=8)", i, seq[i], parl[i])
		}
	}
}

func TestDoPropagatesPanic(t *testing.T) {
	withWorkers(t, 4)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic not propagated")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "boom") {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	DoNamed("test.do", 16, func(i int) {
		if i == 7 {
			panic("boom 7")
		}
	})
}

func TestDoCountsTasks(t *testing.T) {
	withWorkers(t, 2)
	before := mTasks.Value()
	DoNamed("test.do", 10, func(int) {})
	if got := mTasks.Value() - before; got != 10 {
		t.Errorf("par.tasks advanced by %d, want 10", got)
	}
}

// TestQueueWaitExcludesOtherTasks: a task's queue wait runs from its
// worker becoming free, so tasks queued behind others are not charged
// their run time. Six 20 ms tasks on two workers would sum to 120 ms of
// wait if timed from the fan-out's start.
func TestQueueWaitExcludesOtherTasks(t *testing.T) {
	withWorkers(t, 2)
	prev := obs.Enabled()
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(prev) })
	before := mQueueWait.Snapshot()
	DoNamed("test.do", 6, func(int) { time.Sleep(20 * time.Millisecond) })
	after := mQueueWait.Snapshot()
	if n := after.Count - before.Count; n != 6 {
		t.Fatalf("%d queue-wait samples, want 6", n)
	}
	if wait := after.Sum - before.Sum; wait >= 0.020 {
		t.Errorf("queue waits sum to %.1f ms, want less than one task's 20 ms", wait*1e3)
	}
}

func TestAddFlags(t *testing.T) {
	withWorkers(t, 0)
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	n := AddFlags(fs)
	if err := fs.Parse([]string{"-workers", "3"}); err != nil {
		t.Fatal(err)
	}
	Configure(n)
	if got := Workers(); got != 3 {
		t.Errorf("Workers() = %d after -workers 3", got)
	}
}

// TestDoConcurrentFanOuts exercises overlapping DoNamed calls from
// multiple goroutines under the race detector.
func TestDoConcurrentFanOuts(t *testing.T) {
	withWorkers(t, 4)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			var sum atomic.Int64
			DoNamed("test.do", 50, func(i int) { sum.Add(int64(i)) })
			if sum.Load() != 50*49/2 {
				t.Error("wrong sum")
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}

// withSched installs a fresh lane recorder for one test.
func withSched(t *testing.T) {
	t.Helper()
	sched.Enable(0)
	t.Cleanup(sched.Disable)
}

// TestDoLaneBalanceAcrossWorkerCounts checks the tentpole balance
// invariant: at every worker count, each task produces exactly one lane
// interval, every fan-out is closed, and lanes stay inside [0, workers).
func TestDoLaneBalanceAcrossWorkerCounts(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		withWorkers(t, w)
		withSched(t)
		const n = 40
		DoNamed("test.balance", n, func(i int) {})
		s := sched.Capture()
		if s == nil {
			t.Fatal("sched.Capture() = nil with recording enabled")
		}
		if s.OpenFanouts != 0 || s.AbortedFanouts != 0 {
			t.Fatalf("workers=%d: open %d aborted %d, want 0/0", w, s.OpenFanouts, s.AbortedFanouts)
		}
		if s.IntervalsRetained != n {
			t.Fatalf("workers=%d: %d intervals retained, want %d", w, s.IntervalsRetained, n)
		}
		seen := make(map[int]int, n)
		effW := w
		if effW > n {
			effW = n
		}
		for _, iv := range s.Intervals {
			if iv.Label != "test.balance" {
				t.Fatalf("workers=%d: interval label %q", w, iv.Label)
			}
			if iv.Lane < 0 || iv.Lane >= effW {
				t.Fatalf("workers=%d: lane %d outside [0,%d)", w, iv.Lane, effW)
			}
			if iv.EndUS < iv.StartUS {
				t.Fatalf("workers=%d: interval ends before it starts: %+v", w, iv)
			}
			seen[iv.Task]++
		}
		for i := 0; i < n; i++ {
			if seen[i] != 1 {
				t.Fatalf("workers=%d: task %d recorded %d times, want 1", w, i, seen[i])
			}
		}
		if len(s.Labels) != 1 || s.Labels[0].Tasks != n || s.Labels[0].Fanouts != 1 {
			t.Fatalf("workers=%d: label agg = %+v", w, s.Labels)
		}
	}
}

// TestDoLaneBalanceUnderPanic checks that panic propagation never leaves a
// fan-out open. On the threaded path the per-task recover runs before the
// lane interval closes, so the books balance exactly; on the inline path
// the unwind skips the remaining tasks and the deferred End records the
// fan-out as aborted instead.
func TestDoLaneBalanceUnderPanic(t *testing.T) {
	run := func(w int) *sched.Snapshot {
		withWorkers(t, w)
		withSched(t)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("workers=%d: panic not propagated", w)
				}
			}()
			DoNamed("test.panic", 16, func(i int) {
				if i == 7 {
					panic("boom")
				}
			})
		}()
		return sched.Capture()
	}

	s := run(8)
	if s.OpenFanouts != 0 {
		t.Fatalf("threaded: %d fan-outs left open after panic", s.OpenFanouts)
	}
	if s.AbortedFanouts != 0 || s.Labels[0].Tasks != 16 {
		t.Fatalf("threaded: aborted %d tasks %d, want 0/16 (recover closes every interval)",
			s.AbortedFanouts, s.Labels[0].Tasks)
	}

	s = run(1)
	if s.OpenFanouts != 0 {
		t.Fatalf("inline: %d fan-outs left open after panic", s.OpenFanouts)
	}
	if s.AbortedFanouts != 1 {
		t.Fatalf("inline: aborted = %d, want 1 (unwind skips remaining tasks)", s.AbortedFanouts)
	}
}

// TestDoRefreshesWorkersGauge pins the satellite fix: with -workers unset
// the par.workers gauge must track GOMAXPROCS changes made after package
// init, refreshed on each fan-out.
func TestDoRefreshesWorkersGauge(t *testing.T) {
	withWorkers(t, 0)
	old := runtime.GOMAXPROCS(0)
	runtime.GOMAXPROCS(3)
	defer func() {
		runtime.GOMAXPROCS(old)
		gWorkers.Set(int64(Workers()))
	}()
	DoNamed("test.do", 4, func(int) {})
	if got := gWorkers.Value(); got != 3 {
		t.Errorf("par.workers gauge = %d after GOMAXPROCS(3)+DoNamed, want 3", got)
	}
}

// TestDoNamedDisabledSchedAllocs guards the inline fast path end to end:
// with recording off and one worker, a whole DoNamed fan-out allocates
// nothing.
func TestDoNamedDisabledSchedAllocs(t *testing.T) {
	sched.Disable()
	withWorkers(t, 1)
	fn := func(int) {}
	allocs := testing.AllocsPerRun(100, func() {
		DoNamed("test.alloc", 4, fn)
	})
	if allocs != 0 {
		t.Errorf("inline DoNamed with sched disabled allocates %.1f per call, want 0", allocs)
	}
}

func TestMapNamedMatchesMap(t *testing.T) {
	withWorkers(t, 4)
	withSched(t)
	got := MapNamed("test.map", 16, func(i int) int { return i * 3 })
	for i, v := range got {
		if v != i*3 {
			t.Fatalf("slot %d = %d", i, v)
		}
	}
	s := sched.Capture()
	if len(s.Labels) != 1 || s.Labels[0].Label != "test.map" {
		t.Fatalf("labels = %+v, want test.map", s.Labels)
	}
}
