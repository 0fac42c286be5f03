// Package attr provides per-rule cost attribution: labeled metric families
// (counters and histograms) keyed by an interned rule identity, so the
// pipeline can answer "which TGD/CDD/body is burning the time" where the
// plain obs registry only answers "how much in total".
//
// The design extends the obs contract one level down:
//
//   - keys are interned once, on a cold path (rule and plan compilation),
//     into dense int32 IDs; the hot path never touches a map or a string;
//   - every family holds one striped obs.Counter (or obs.Histogram) per
//     key, published through an atomic pointer to a copy-on-write slice, so
//     a recording is: one atomic enabled-load, one atomic slice-load, one
//     index, one striped atomic add — no locks, no allocation
//     (BenchmarkAttrCounterAdd pins this down);
//   - the disabled path is a single atomic bool load and nothing else
//     (BenchmarkAttrRecordDisabled), matching flight.Record's guarantee;
//   - interning is content-addressed (the canonical body/rule string), so
//     IDs attribute identically across reps, KB clones and worker counts,
//     and snapshots sort by key — byte-identical output regardless of the
//     order goroutines first touched a rule.
package attr

import (
	"sort"
	"sync"
	"sync/atomic"

	"kbrepair/internal/obs"
)

// ID is a dense handle for an interned attribution key. IDs are never
// reused within a process.
type ID int32

// None is the null ID: recording against it is a no-op. Call sites that
// resolve their ID only when attribution is enabled use None otherwise.
const None ID = -1

// enabled gates all recording. Unlike obs timing (opt-in because of clock
// reads), attribution is also opt-in because per-key families cost memory
// proportional to the number of distinct rule bodies.
var enabled atomic.Bool

// SetEnabled turns attribution recording on or off.
func SetEnabled(v bool) { enabled.Store(v) }

// Enabled reports whether attribution recording is on. Hot paths may check
// it once to skip computing several record arguments; each family method
// also checks it, so an unguarded call is merely slightly slower, never
// wrong.
func Enabled() bool { return enabled.Load() }

var (
	// mu guards interning and family registration; never held on a
	// recording path.
	mu       sync.Mutex
	index    = map[string]ID{}
	keysPtr  atomic.Pointer[[]string]
	families = map[string]family{}
)

func init() {
	empty := []string{}
	keysPtr.Store(&empty)
}

// family is the registration-side interface of a metric family: grow is
// called under mu whenever a new key is interned, so every family always
// covers every live ID.
type family interface {
	growLocked(n int)
	snapshotInto(s *Snapshot, perm []int)
}

// Intern returns the ID for key, assigning the next dense one on first
// sight. It is safe for concurrent use but takes a lock — call it from
// cold paths (compilation, per-run setup) and cache the result.
func Intern(key string) ID {
	mu.Lock()
	defer mu.Unlock()
	if id, ok := index[key]; ok {
		return id
	}
	old := *keysPtr.Load()
	id := ID(len(old))
	for _, f := range families {
		f.growLocked(int(id) + 1)
	}
	ks := make([]string, len(old)+1)
	copy(ks, old)
	ks[len(old)] = key
	keysPtr.Store(&ks)
	index[key] = id
	return id
}

// Keys returns the interned keys, in ID order.
func Keys() []string {
	return append([]string(nil), *keysPtr.Load()...)
}

// CounterVec is a family of per-key counters. Each cell is a striped
// obs.Counter, so concurrent writers on the same key (parallel conflict
// scans of one CDD's plan, chase trigger collection) spread over stripes
// exactly like the global counters do.
type CounterVec struct {
	name  string
	cells atomic.Pointer[[]*obs.Counter]
}

// NewCounterVec registers (or returns) the counter family named name.
func NewCounterVec(name string) *CounterVec {
	mu.Lock()
	defer mu.Unlock()
	if f, ok := families[name]; ok {
		return f.(*CounterVec)
	}
	v := &CounterVec{name: name}
	empty := []*obs.Counter{}
	v.cells.Store(&empty)
	v.growLocked(len(*keysPtr.Load()))
	families[name] = v
	return v
}

// Name returns the family name.
func (v *CounterVec) Name() string { return v.name }

func (v *CounterVec) growLocked(n int) {
	var cur []*obs.Counter
	if p := v.cells.Load(); p != nil {
		cur = *p
	}
	if len(cur) >= n {
		return
	}
	nw := make([]*obs.Counter, n)
	copy(nw, cur)
	for i := len(cur); i < n; i++ {
		nw[i] = new(obs.Counter)
	}
	v.cells.Store(&nw)
}

// Add records n against id. Disabled, None, or an ID the family has not
// grown to yet (impossible for IDs obtained from Intern, which grows every
// family before returning) are no-ops.
func (v *CounterVec) Add(id ID, n int64) {
	if !enabled.Load() || id < 0 {
		return
	}
	cs := *v.cells.Load()
	if int(id) >= len(cs) {
		return
	}
	cs[id].Add(n)
}

// Value returns the current total for id (0 for unknown IDs).
func (v *CounterVec) Value(id ID) int64 {
	if id < 0 {
		return 0
	}
	cs := *v.cells.Load()
	if int(id) >= len(cs) {
		return 0
	}
	return cs[id].Value()
}

func (v *CounterVec) snapshotInto(s *Snapshot, perm []int) {
	cs := *v.cells.Load()
	out := make([]int64, len(perm))
	for i, src := range perm {
		if src < len(cs) {
			out[i] = cs[src].Value()
		}
	}
	s.Counters[v.name] = out
}

// SizeBuckets are the default histogram bounds for per-search tree and
// probe counts: powers of four from 1 to ~1M. The overflow bucket catches
// pathological searches.
var SizeBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}

// HistogramVec is a family of per-key histograms sharing one set of
// bounds.
type HistogramVec struct {
	name   string
	bounds []float64
	cells  atomic.Pointer[[]*obs.Histogram]
}

// NewHistogramVec registers (or returns) the histogram family named name
// with the given upper bucket bounds (nil means obs.LatencyBuckets; bounds
// of a re-registration are ignored).
func NewHistogramVec(name string, bounds []float64) *HistogramVec {
	mu.Lock()
	defer mu.Unlock()
	if f, ok := families[name]; ok {
		return f.(*HistogramVec)
	}
	if bounds == nil {
		bounds = obs.LatencyBuckets
	}
	v := &HistogramVec{name: name, bounds: append([]float64(nil), bounds...)}
	empty := []*obs.Histogram{}
	v.cells.Store(&empty)
	v.growLocked(len(*keysPtr.Load()))
	families[name] = v
	return v
}

// Name returns the family name.
func (v *HistogramVec) Name() string { return v.name }

func (v *HistogramVec) growLocked(n int) {
	var cur []*obs.Histogram
	if p := v.cells.Load(); p != nil {
		cur = *p
	}
	if len(cur) >= n {
		return
	}
	nw := make([]*obs.Histogram, n)
	copy(nw, cur)
	for i := len(cur); i < n; i++ {
		nw[i] = obs.NewUnregisteredHistogram(v.bounds)
	}
	v.cells.Store(&nw)
}

// Observe records one sample against id.
func (v *HistogramVec) Observe(id ID, x float64) {
	if !enabled.Load() || id < 0 {
		return
	}
	hs := *v.cells.Load()
	if int(id) >= len(hs) {
		return
	}
	hs[id].Observe(x)
}

// Since observes the elapsed seconds of a Timer against id; inert timers
// (obs timing disabled) are ignored, so per-key timing composes with the
// obs.SetEnabled gate the same way the global histograms do.
func (v *HistogramVec) Since(id ID, t obs.Timer) {
	if !enabled.Load() || id < 0 {
		return
	}
	hs := *v.cells.Load()
	if int(id) >= len(hs) {
		return
	}
	hs[id].Since(t)
}

func (v *HistogramVec) snapshotInto(s *Snapshot, perm []int) {
	hs := *v.cells.Load()
	out := make([]obs.HistogramSnapshot, len(perm))
	for i, src := range perm {
		if src < len(hs) {
			out[i] = hs[src].Snapshot()
		}
	}
	s.Histograms[v.name] = out
}

// Snapshot is a point-in-time capture of every family, keys sorted
// lexicographically and every per-family slice aligned with Keys. Sorting
// makes the snapshot independent of interning order, which varies with
// goroutine scheduling — a requirement for the byte-identical profile
// guarantee at any -workers count.
type Snapshot struct {
	Keys       []string                           `json:"keys"`
	Counters   map[string][]int64                 `json:"counters,omitempty"`
	Histograms map[string][]obs.HistogramSnapshot `json:"histograms,omitempty"`
}

// Counter returns the value of family fam at key index i (0 when the
// family is absent).
func (s *Snapshot) Counter(fam string, i int) int64 {
	vs := s.Counters[fam]
	if i < 0 || i >= len(vs) {
		return 0
	}
	return vs[i]
}

// Histogram returns the snapshot of family fam at key index i (zero value
// when absent).
func (s *Snapshot) Histogram(fam string, i int) obs.HistogramSnapshot {
	hs := s.Histograms[fam]
	if i < 0 || i >= len(hs) {
		return obs.HistogramSnapshot{}
	}
	return hs[i]
}

// Capture returns a snapshot of all families, or nil when attribution is
// disabled (the bundle section is omitted rather than empty).
func Capture() *Snapshot {
	if !enabled.Load() {
		return nil
	}
	return SnapshotAll()
}

// SnapshotAll captures all families regardless of the enabled gate — the
// /profilez handler uses it so a scrape of a disabled process still shows
// whatever was recorded before the gate closed.
func SnapshotAll() *Snapshot {
	mu.Lock()
	defer mu.Unlock()
	keys := *keysPtr.Load()
	perm := make([]int, len(keys))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return keys[perm[a]] < keys[perm[b]] })
	s := &Snapshot{
		Keys:       make([]string, len(keys)),
		Counters:   map[string][]int64{},
		Histograms: map[string][]obs.HistogramSnapshot{},
	}
	for i, src := range perm {
		s.Keys[i] = keys[src]
	}
	for _, f := range families {
		f.snapshotInto(s, perm)
	}
	return s
}

// Reset zeroes every cell of every family (for tests and between
// benchmark runs); interned keys and IDs stay valid.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	for _, f := range families {
		switch v := f.(type) {
		case *CounterVec:
			for _, c := range *v.cells.Load() {
				c.Reset()
			}
		case *HistogramVec:
			for _, h := range *v.cells.Load() {
				h.Reset()
			}
		}
	}
}
