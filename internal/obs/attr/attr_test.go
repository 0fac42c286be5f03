package attr

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"kbrepair/internal/obs"
)

// withEnabled runs f with attribution forced on, restoring the prior state.
func withEnabled(t *testing.T, f func()) {
	t.Helper()
	prev := Enabled()
	SetEnabled(true)
	defer SetEnabled(prev)
	f()
}

func TestInternDenseAndStable(t *testing.T) {
	a := Intern("test.intern/a")
	b := Intern("test.intern/b")
	if a == b {
		t.Fatalf("distinct keys share ID %d", a)
	}
	if got := Intern("test.intern/a"); got != a {
		t.Fatalf("re-intern returned %d, want %d", got, a)
	}
	keys := Keys()
	if keys[a] != "test.intern/a" || keys[b] != "test.intern/b" {
		t.Fatalf("Keys misaligned: %q@%d %q@%d", keys[a], a, keys[b], b)
	}
}

func TestCounterVecRecording(t *testing.T) {
	v := NewCounterVec("test.counter_recording")
	id := Intern("test.counter_recording/key")

	SetEnabled(false)
	v.Add(id, 5)
	if got := v.Value(id); got != 0 {
		t.Fatalf("disabled Add recorded %d", got)
	}

	withEnabled(t, func() {
		v.Add(id, 5)
		v.Add(None, 100) // no-op, no panic
		v.Add(id, 2)
	})
	if got := v.Value(id); got != 7 {
		t.Fatalf("Value = %d, want 7", got)
	}
}

func TestHistogramVecRecording(t *testing.T) {
	v := NewHistogramVec("test.hist_recording", SizeBuckets)
	id := Intern("test.hist_recording/key")
	withEnabled(t, func() {
		v.Observe(id, 3)
		v.Observe(id, 300)
		v.Observe(None, 1) // no-op
	})
	s := SnapshotAll()
	i := sort.SearchStrings(s.Keys, "test.hist_recording/key")
	h := s.Histogram("test.hist_recording", i)
	if h.Count != 2 || h.Sum != 303 {
		t.Fatalf("histogram count=%d sum=%v, want 2/303", h.Count, h.Sum)
	}
}

func TestSnapshotSortedAndAligned(t *testing.T) {
	v := NewCounterVec("test.snapshot_sorted")
	// Intern in an order that is not lexicographic.
	idB := Intern("test.snapshot_sorted/b")
	idA := Intern("test.snapshot_sorted/a")
	withEnabled(t, func() {
		v.Add(idA, 1)
		v.Add(idB, 2)
	})
	s := SnapshotAll()
	if !sort.StringsAreSorted(s.Keys) {
		t.Fatal("snapshot keys not sorted")
	}
	find := func(key string) int {
		i := sort.SearchStrings(s.Keys, key)
		if i == len(s.Keys) || s.Keys[i] != key {
			t.Fatalf("key %q missing from snapshot", key)
		}
		return i
	}
	if got := s.Counter("test.snapshot_sorted", find("test.snapshot_sorted/a")); got != 1 {
		t.Fatalf("a = %d, want 1", got)
	}
	if got := s.Counter("test.snapshot_sorted", find("test.snapshot_sorted/b")); got != 2 {
		t.Fatalf("b = %d, want 2", got)
	}
}

func TestCaptureNilWhenDisabled(t *testing.T) {
	SetEnabled(false)
	if s := Capture(); s != nil {
		t.Fatal("Capture returned a snapshot while disabled")
	}
	withEnabled(t, func() {
		if s := Capture(); s == nil {
			t.Fatal("Capture returned nil while enabled")
		}
	})
}

func TestResetZeroesCellsKeepsIDs(t *testing.T) {
	v := NewCounterVec("test.reset")
	id := Intern("test.reset/key")
	withEnabled(t, func() {
		v.Add(id, 9)
		Reset()
		if got := v.Value(id); got != 0 {
			t.Fatalf("post-Reset value = %d", got)
		}
		v.Add(id, 4)
	})
	if got := v.Value(id); got != 4 {
		t.Fatalf("handle dead after Reset: value = %d, want 4", got)
	}
}

// TestConcurrentAddVsSnapshot races recorders against Intern and
// SnapshotAll; under -race this is the memory-safety proof for the
// copy-on-write slices.
func TestConcurrentAddVsSnapshot(t *testing.T) {
	v := NewCounterVec("test.race_counter")
	h := NewHistogramVec("test.race_hist", SizeBuckets)
	withEnabled(t, func() {
		const (
			writers = 8
			perW    = 500
		)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perW; i++ {
					id := Intern(fmt.Sprintf("test.race/%d", i%17))
					v.Add(id, 1)
					h.Observe(id, float64(i))
				}
			}(w)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 50; i++ {
				SnapshotAll()
			}
		}()
		wg.Wait()
		<-done

		s := SnapshotAll()
		var total int64
		for i := range s.Keys {
			if strings.HasPrefix(s.Keys[i], "test.race/") {
				total += s.Counter("test.race_counter", i)
			}
		}
		if want := int64(writers * perW); total != want {
			t.Fatalf("lost updates: total = %d, want %d", total, want)
		}
	})
}

// TestRecordAllocs pins the zero-allocation contract of the hot paths, both
// gates of it: disabled recording and enabled recording.
func TestRecordAllocs(t *testing.T) {
	v := NewCounterVec("test.allocs_counter")
	h := NewHistogramVec("test.allocs_hist", SizeBuckets)
	id := Intern("test.allocs/key")

	SetEnabled(false)
	if n := testing.AllocsPerRun(100, func() { v.Add(id, 1) }); n != 0 {
		t.Fatalf("disabled CounterVec.Add allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { h.Observe(id, 1) }); n != 0 {
		t.Fatalf("disabled HistogramVec.Observe allocates %v/op", n)
	}

	withEnabled(t, func() {
		if n := testing.AllocsPerRun(100, func() { v.Add(id, 1) }); n != 0 {
			t.Fatalf("enabled CounterVec.Add allocates %v/op", n)
		}
		if n := testing.AllocsPerRun(100, func() { h.Observe(id, 1) }); n != 0 {
			t.Fatalf("enabled HistogramVec.Observe allocates %v/op", n)
		}
	})
}

func TestRowsOrderingAndShares(t *testing.T) {
	searches := NewCounterVec(FamSearches)
	nodes := NewCounterVec(FamNodes)
	secs := NewHistogramVec(FamSearchSeconds, nil)
	a := Intern("test.rows/a")
	b := Intern("test.rows/b")
	c := Intern("test.rows/c")
	withEnabled(t, func() {
		Reset()
		searches.Add(a, 1)
		nodes.Add(a, 100)
		secs.Observe(a, 0.25)
		searches.Add(b, 1)
		nodes.Add(b, 900)
		secs.Observe(b, 0.75)
		searches.Add(c, 1)
		nodes.Add(c, 50)
		// c has no timing: sorts last even though interned after b.
	})
	var rows []Row
	for _, r := range Rows(SnapshotAll()) {
		if strings.HasPrefix(r.Body, "test.rows/") {
			rows = append(rows, r)
		}
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	if rows[0].Body != "test.rows/b" || rows[1].Body != "test.rows/a" || rows[2].Body != "test.rows/c" {
		t.Fatalf("order = %q,%q,%q", rows[0].Body, rows[1].Body, rows[2].Body)
	}
	if rows[0].TimeShare <= rows[1].TimeShare {
		t.Fatalf("time shares not ordered: %v vs %v", rows[0].TimeShare, rows[1].TimeShare)
	}
	if got := TopRows(SnapshotAll(), 1); len(got) != 1 {
		t.Fatalf("TopRows(1) returned %d rows", len(got))
	}
}

func TestProfilezHandler(t *testing.T) {
	searches := NewCounterVec(FamSearches)
	nodes := NewCounterVec(FamNodes)
	id := Intern("test.profilez/body")
	withEnabled(t, func() {
		Reset()
		searches.Add(id, 3)
		nodes.Add(id, 42)
	})

	rec := httptest.NewRecorder()
	profilezHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/profilez?k=0", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var doc struct {
		Bodies int   `json:"bodies"`
		Rows   []Row `json:"rows"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	found := false
	for _, r := range doc.Rows {
		if r.Body == "test.profilez/body" && r.Searches == 3 && r.Nodes == 42 {
			found = true
		}
	}
	if !found {
		t.Fatalf("row missing from /profilez: %+v", doc.Rows)
	}

	rec = httptest.NewRecorder()
	profilezHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/profilez?k=junk", nil))
	if rec.Code != 400 {
		t.Fatalf("bad k: status %d, want 400", rec.Code)
	}
}

func TestPromAppender(t *testing.T) {
	searches := NewCounterVec(FamSearches)
	nodes := NewCounterVec(FamNodes)
	id := Intern("test.prom/body")
	withEnabled(t, func() {
		Reset()
		searches.Add(id, 2)
		nodes.Add(id, 7)
	})
	var b strings.Builder
	if err := writeProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `kbrepair_rule_backtrack_nodes_total{rule="test.prom/body"} 7`) {
		t.Fatalf("per-rule series missing:\n%s", out)
	}
	if !strings.Contains(out, "kbrepair_rule_series_truncated") {
		t.Fatalf("truncation gauge missing:\n%s", out)
	}
	// The appender is registered with obs, so the full exposition carries it.
	var full strings.Builder
	if err := obs.WriteFullPrometheus(&full, obs.Snapshot{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(full.String(), "kbrepair_rule_searches_total") {
		t.Fatal("WriteFullPrometheus missing attr section")
	}
}
