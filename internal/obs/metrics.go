package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"kbrepair/internal/stats"
)

// stripes is the number of independent cells a counter spreads its updates
// over. Eight cells comfortably cover the core counts this code will meet;
// the per-counter cost is a few cache lines.
const stripes = 8

// cell is a cache-line-padded atomic so that concurrent writers on
// different stripes never false-share.
type cell struct {
	v atomic.Int64
	_ [56]byte
}

// stripeHint picks a stripe for the calling goroutine. Goroutine stacks are
// disjoint, so the address of a local variable is a cheap per-goroutine
// value; shifting drops alignment bits. This needs no runtime support, no
// locks and no allocation — the compiler keeps the local on the stack
// because the pointer is converted to uintptr in the same expression.
func stripeHint() uint {
	var b byte
	return uint(uintptr(unsafe.Pointer(&b))>>6) % stripes
}

// Counter is a monotone event count. Updates are striped atomic adds:
// single-writer cost is one uncontended atomic, and parallel writers (the
// future parallel chase) spread over stripes instead of bouncing one cache
// line.
type Counter struct {
	name  string
	cells [stripes]cell
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.cells[stripeHint()].v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total.
func (c *Counter) Value() int64 {
	var t int64
	for i := range c.cells {
		t += c.cells[i].v.Load()
	}
	return t
}

// Name returns the registered name.
func (c *Counter) Name() string { return c.name }

// Reset zeroes the counter. Registry.Reset uses it; so do the labeled
// families of internal/obs/attr, whose cells are unregistered Counters.
func (c *Counter) Reset() {
	for i := range c.cells {
		c.cells[i].v.Store(0)
	}
}

// Gauge is a last-value instrument (a level, not a count).
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set records the current level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the level by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Name returns the registered name.
func (g *Gauge) Name() string { return g.name }

// LatencyBuckets are the default histogram bounds for operation latencies,
// in seconds: decade steps from 100ns to 10s. The overflow bucket catches
// anything slower.
var LatencyBuckets = []float64{
	1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10,
}

// Histogram is a fixed-bucket histogram with atomic cells. Bounds are
// upper bucket edges; an observation lands in the first bucket whose bound
// is >= the value, or in the overflow bucket past the last bound. Exact
// sum, min and max are tracked so snapshots reconcile with
// stats.Summarize on the raw samples (see stats.FromHistogram).
type Histogram struct {
	name   string
	bounds []float64
	// counts has len(bounds)+1 cells, the last for overflow. The total
	// count is their sum, never a separate atomic: a snapshot reading a
	// total and then the cells would see observations land in between.
	counts []atomic.Int64
	sum    atomicFloat
	min    atomicFloat
	max    atomicFloat
}

// atomicFloat is a float64 updated by CAS on its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) load() float64   { return math.Float64frombits(f.bits.Load()) }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (f *atomicFloat) min(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (f *atomicFloat) max(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.add(v)
	h.min.min(v)
	h.max.max(v)
}

// Since observes the elapsed time of a Timer in seconds; inert timers (from
// a disabled StartTimer) are ignored.
func (h *Histogram) Since(t Timer) {
	if t.t.IsZero() {
		return
	}
	h.Observe(time.Since(t.t).Seconds())
}

// ObserveDuration records a duration sample in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations: the sum of the bucket cells.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Name returns the registered name.
func (h *Histogram) Name() string { return h.name }

// Reset zeroes the histogram; handles stay valid.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.sum.store(0)
	h.min.store(math.Inf(1))
	h.max.store(math.Inf(-1))
}

// Snapshot captures a consistent-enough view. Count is the sum of the
// bucket cells it read, so buckets and count always agree and both are
// monotone across snapshots; sum, min and max are separate atomics whose
// skew against in-flight observations is acceptable for reporting.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	if s.Count > 0 {
		s.Sum = h.sum.load()
		s.Min = h.min.load()
		s.Max = h.max.load()
	}
	return s
}

// HistogramSnapshot is the serializable state of a histogram.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	// Bounds are the upper bucket edges; Counts has one extra overflow
	// entry for observations beyond the last bound.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

// Summary bridges the histogram to the paper's boxplot statistics: an
// approximate stats.Summary whose quantiles are interpolated from the
// buckets (see stats.FromHistogram for the accuracy contract).
func (s HistogramSnapshot) Summary() stats.Summary {
	return stats.FromHistogram(s.Bounds, s.Counts, s.Sum, s.Min, s.Max)
}

// Snapshot is a point-in-time capture of a registry, JSON-serializable as
// the -metrics output format.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Registry is a named set of instruments. Registration takes a lock;
// instrument updates never do — callers hold on to the returned handles.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter registers a counter under name, or returns the existing one.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	r.counters[name] = c
	return c
}

// Gauge registers a gauge under name, or returns the existing one.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name}
	r.gauges[name] = g
	return g
}

// NewUnregisteredHistogram returns a standalone histogram attached to no
// registry (nil bounds mean LatencyBuckets) — the building block for the
// labeled families of internal/obs/attr, which manage their own key space
// instead of the registry's flat namespace.
func NewUnregisteredHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = LatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not increasing at %d", i))
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	h.min.store(math.Inf(1))
	h.max.store(math.Inf(-1))
	return h
}

// Histogram registers a histogram under name with the given upper bucket
// bounds (must be strictly increasing; nil means LatencyBuckets), or
// returns the existing one (bounds of a re-registration are ignored).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	h := NewUnregisteredHistogram(bounds)
	h.name = name
	r.histograms[name] = h
	return h
}

// Snapshot captures the current values of every instrument.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range r.histograms {
		s.Histograms[n] = h.Snapshot()
	}
	return s
}

// Reset zeroes every instrument (for tests and between benchmark runs);
// handles stay valid.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.Reset()
	}
	for _, g := range r.gauges {
		g.Set(0)
	}
	for _, h := range r.histograms {
		h.Reset()
	}
}

// Names returns all registered instrument names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for n := range r.counters {
		out = append(out, n)
	}
	for n := range r.gauges {
		out = append(out, n)
	}
	for n := range r.histograms {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// WriteJSON writes the snapshot as indented JSON (the -metrics file
// format). Map keys are emitted sorted, so output is deterministic for a
// given state.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
