// Package par provides the worker pool of kbrepair's one parallel site:
// conflict detection, which runs one independent homomorphism search per CDD
// (conflict.scan, in AllNaive and in the chase-level scan behind All). It
// pays on a store's first scan, which searches every CDD; a re-scan after
// a value update (conflict.RescanInPlace) fans out over only the CDDs the
// update can reach. Everything else in the pipeline — the chase, the
// incremental tracker, ranking, fix generation and the Π-checks — runs
// sequentially on the caller's goroutine.
//
// Design rules, enforced by the caller:
//
//   - Tasks are read-only with respect to shared state (the store's
//     concurrent-read contract; see internal/store). All mutation happens
//     after the fan-in, on the caller's goroutine.
//   - Results are merged in task-index order, never in completion order, so
//     every output is byte-identical regardless of the worker count.
//     MapNamed makes this the default by writing each task's result to its
//     own slot.
//
// The pool size is a process-wide setting (SetWorkers / the -workers CLI
// flag, default runtime.GOMAXPROCS(0)). Workers are spawned per fan-out
// rather than kept hot: the tasks are coarse (whole homomorphism searches),
// so goroutine start-up cost is noise, and an idle process holds no
// threads.
package par

import (
	"flag"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"kbrepair/internal/obs"
	"kbrepair/internal/obs/flight"
	"kbrepair/internal/obs/sched"
)

// Pool instrumentation: tasks executed, the configured pool size, and each
// task's queue wait — the time from its worker becoming free (the fan-out's
// start for a worker's first task, the end of its previous task after
// that) to the task starting, i.e. the pool's hand-off latency. A task's
// wait never includes another task's run time, so a worker's waits are
// disjoint slices of its lane and their sum stays within worker capacity.
var (
	mTasks     = obs.NewCounter("par.tasks")
	gWorkers   = obs.NewGauge("par.workers")
	mQueueWait = obs.NewHistogram("par.queue_wait_seconds", obs.LatencyBuckets)
)

// workers holds the configured pool size; 0 means "unset, use
// runtime.GOMAXPROCS(0)" so that changing GOMAXPROCS at runtime is
// respected until someone pins an explicit count.
var workers atomic.Int64

func init() { gWorkers.Set(int64(Workers())) }

// Workers returns the current pool size: the value of the last SetWorkers
// call, or runtime.GOMAXPROCS(0) if never set (or set to <= 0).
func Workers() int {
	if n := workers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers pins the pool size. n <= 0 resets to the default
// (runtime.GOMAXPROCS(0)). It returns the effective size.
func SetWorkers(n int) int {
	if n <= 0 {
		workers.Store(0)
	} else {
		workers.Store(int64(n))
	}
	w := Workers()
	gWorkers.Set(int64(w))
	return w
}

// AddFlags registers the shared -workers flag on fs, mirroring
// obs.AddFlags so all CLIs expose an identical surface. The returned value
// must be applied with Configure after fs is parsed.
func AddFlags(fs *flag.FlagSet) *int {
	n := new(int)
	fs.IntVar(n, "workers", 0,
		fmt.Sprintf("parallel worker count for conflict detection, the only parallel phase (0 = GOMAXPROCS, currently %d)", runtime.GOMAXPROCS(0)))
	return n
}

// Configure applies a parsed AddFlags value.
func Configure(n *int) { SetWorkers(*n) }

// DoNamed runs fn(0) … fn(n-1) on up to Workers() goroutines and returns
// when all calls have finished. Tasks are handed out in index order but may
// complete in any order; callers must not depend on cross-task timing.
// With a pool size of one (or a single task) everything runs inline on the
// calling goroutine, which keeps -workers 1 a true sequential baseline.
//
// If any task panics, DoNamed panics on the calling goroutine with the
// first panic value after all workers have stopped.
//
// label is the phase name the sched lane recorder aggregates under
// ("conflict.scan"), which becomes the per-phase row of kbbench's
// efficiency report. It changes no execution behavior — lane recording is
// observability-only, nil-cost when disabled, and its records never enter
// the trace stream, so output stays byte-identical at every worker count.
func DoNamed(label string, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	mTasks.Add(int64(n))
	w := Workers()
	// Keep the pool gauge fresh: with -workers unset the effective size
	// tracks runtime.GOMAXPROCS, which can change after package init.
	gWorkers.Set(int64(w))
	if w > n {
		w = n
	}
	fo := sched.Begin(label, n, w)
	defer fo.End() // balances Begin on every exit path, panics included
	if w <= 1 {
		for i := 0; i < n; i++ {
			t0 := fo.Start()
			fn(i)
			fo.Task(0, i, t0)
		}
		return
	}
	// Only true fan-outs are flight-recorded; inline runs would flood the
	// ring with events that carry no scheduling information.
	flight.Record(flight.KindParDispatch, int64(n), int64(w), 0, 0)
	start := obs.StartTimer()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Bool
		panicVal any
	)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			free := start
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				mQueueWait.Since(free)
				t0 := fo.Start()
				func() {
					defer func() {
						if r := recover(); r != nil {
							if panicked.CompareAndSwap(false, true) {
								panicVal = r
							}
						}
					}()
					fn(i)
				}()
				// The lane interval closes even for a panicked task — the
				// recover above already fired — keeping busy records balanced.
				fo.Task(g, i, t0)
				free = obs.StartTimer()
			}
		}()
	}
	wg.Wait()
	if panicked.Load() {
		panic(panicVal)
	}
}

// MapNamed runs fn over 0 … n-1 in parallel and returns the results in
// task order — the deterministic fan-out/fan-in shape of the conflict
// scan. label names the fan-out, as for DoNamed.
func MapNamed[T any](label string, n int, fn func(i int) T) []T {
	out := make([]T, n)
	DoNamed(label, n, func(i int) { out[i] = fn(i) })
	return out
}
