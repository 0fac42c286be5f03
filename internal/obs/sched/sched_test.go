package sched

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"kbrepair/internal/obs"
)

// withRecorder installs a fresh recorder for one test and removes it after.
func withRecorder(t *testing.T, capacity int) *Recorder {
	t.Helper()
	r := Enable(capacity)
	t.Cleanup(Disable)
	return r
}

func TestDisabledBeginReturnsNil(t *testing.T) {
	Disable()
	if f := Begin("x", 4, 2); f != nil {
		t.Fatalf("Begin with recording disabled = %v, want nil", f)
	}
	// All methods must be nil-receiver safe.
	var f *Fanout
	if got := f.Start(); got != 0 {
		t.Errorf("nil Start() = %d, want 0", got)
	}
	f.Task(0, 0, 0)
	f.End()
}

// TestDisabledPathAllocates0 is the AllocsPerRun guard behind the
// zero-cost-when-off contract: the entire Begin/Start/Task/End sequence on
// the disabled path must not allocate.
func TestDisabledPathAllocates0(t *testing.T) {
	Disable()
	allocs := testing.AllocsPerRun(200, func() {
		f := Begin("chase.spec", 8, 4)
		t0 := f.Start()
		f.Task(0, 0, t0)
		f.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled sched path allocates %.1f per fan-out, want 0", allocs)
	}
}

// BenchmarkSchedDisabled measures the disabled fast path par.DoNamed pays on
// every fan-out when no CLI opted in — one atomic load in Begin plus
// nil-receiver no-ops.
func BenchmarkSchedDisabled(b *testing.B) {
	Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := Begin("bench", 8, 4)
		t0 := f.Start()
		f.Task(0, 0, t0)
		f.End()
	}
}

func BenchmarkSchedEnabledTask(b *testing.B) {
	Enable(0)
	defer Disable()
	f := Begin("bench", b.N, 1)
	defer f.End()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := f.Start()
		f.Task(0, i, t0)
	}
}

func TestFanoutAggregation(t *testing.T) {
	withRecorder(t, 0)
	f := Begin("phase.a", 3, 2)
	if f == nil {
		t.Fatal("Begin returned nil with recording enabled")
	}
	for i := 0; i < 3; i++ {
		t0 := f.Start()
		f.Task(i%2, i, t0)
	}
	f.End()
	s := Capture()
	if s == nil {
		t.Fatal("Capture returned nil with recording enabled")
	}
	if s.FanoutsTotal != 1 || s.OpenFanouts != 0 || s.AbortedFanouts != 0 {
		t.Fatalf("totals = %d open %d aborted %d, want 1/0/0",
			s.FanoutsTotal, s.OpenFanouts, s.AbortedFanouts)
	}
	if s.IntervalsRetained != 3 || s.IntervalsTotal != 3 {
		t.Fatalf("intervals retained %d total %d, want 3/3", s.IntervalsRetained, s.IntervalsTotal)
	}
	if len(s.Labels) != 1 {
		t.Fatalf("labels = %v, want one", s.Labels)
	}
	a := s.Labels[0]
	if a.Label != "phase.a" || a.Fanouts != 1 || a.Tasks != 3 || a.MaxWorkers != 2 {
		t.Fatalf("agg = %+v", a)
	}
	if a.WorkerUS != 2*a.WallUS {
		t.Fatalf("WorkerUS %d != workers*WallUS %d", a.WorkerUS, 2*a.WallUS)
	}
	if a.TopWallUS != a.WallUS {
		t.Fatalf("top-level fan-out: TopWallUS %d != WallUS %d", a.TopWallUS, a.WallUS)
	}
}

func TestNestedFanoutExcludedFromTopWall(t *testing.T) {
	withRecorder(t, 0)
	outer := Begin("outer", 1, 2)
	inner := Begin("inner", 1, 2)
	t0 := inner.Start()
	inner.Task(0, 0, t0)
	inner.End()
	t0 = outer.Start()
	outer.Task(0, 0, t0)
	outer.End()
	s := Capture()
	for _, a := range s.Labels {
		switch a.Label {
		case "outer":
			if a.NestedFanouts != 0 || a.TopWallUS != a.WallUS {
				t.Errorf("outer agg = %+v, want top-level", a)
			}
		case "inner":
			if a.NestedFanouts != 1 || a.TopWallUS != 0 {
				t.Errorf("inner agg = %+v, want nested with zero TopWallUS", a)
			}
		}
	}
}

func TestShortfallCountsAsAborted(t *testing.T) {
	withRecorder(t, 0)
	f := Begin("phase.p", 4, 1)
	t0 := f.Start()
	f.Task(0, 0, t0)
	// Simulates the inline path unwinding on a panic: tasks 1..3 never run,
	// but the deferred End still fires.
	f.End()
	s := Capture()
	if s.OpenFanouts != 0 {
		t.Fatalf("OpenFanouts = %d, want 0 (End ran)", s.OpenFanouts)
	}
	if s.AbortedFanouts != 1 {
		t.Fatalf("AbortedFanouts = %d, want 1 (3 planned tasks never recorded)", s.AbortedFanouts)
	}
	if s.Labels[0].AbortedFanouts != 1 {
		t.Fatalf("label agg aborted = %d, want 1", s.Labels[0].AbortedFanouts)
	}
}

func TestRingWrapKeepsNewestOldestFirst(t *testing.T) {
	withRecorder(t, 4)
	f := Begin("wrap", 10, 1)
	for i := 0; i < 10; i++ {
		t0 := f.Start()
		f.Task(0, i, t0)
	}
	f.End()
	s := Capture()
	if s.IntervalsTotal != 10 || s.IntervalsRetained != 4 {
		t.Fatalf("total %d retained %d, want 10/4", s.IntervalsTotal, s.IntervalsRetained)
	}
	for j, iv := range s.Intervals {
		if want := 6 + j; iv.Task != want {
			t.Fatalf("interval %d has task %d, want %d (newest four, oldest first)", j, iv.Task, want)
		}
	}
}

func TestSnapshotJSONRoundtrip(t *testing.T) {
	withRecorder(t, 0)
	f := Begin("phase.a", 1, 1)
	t0 := f.Start()
	f.Task(0, 0, t0)
	f.End()
	s := Capture()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.FanoutsTotal != s.FanoutsTotal || len(back.Labels) != len(s.Labels) ||
		len(back.Intervals) != len(s.Intervals) {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", back, s)
	}
}

func TestSchedzHandler(t *testing.T) {
	Disable()
	h := SchedzHandler()
	req := httptest.NewRequest("GET", "/schedz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var p struct {
		Enabled bool            `json:"enabled"`
		Sched   *Snapshot       `json:"sched"`
		Runtime json.RawMessage `json:"runtime"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatalf("disabled /schedz: %v (%s)", err, rec.Body.String())
	}
	if p.Enabled || p.Sched != nil || len(p.Runtime) == 0 {
		t.Fatalf("disabled /schedz payload = %s", rec.Body.String())
	}

	withRecorder(t, 0)
	f := Begin("phase.z", 100, 1)
	for i := 0; i < 100; i++ {
		t0 := f.Start()
		f.Task(0, i, t0)
	}
	f.End()
	req = httptest.NewRequest("GET", "/schedz?intervals=5", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if !p.Enabled || p.Sched == nil {
		t.Fatalf("enabled /schedz payload = %s", rec.Body.String())
	}
	if len(p.Sched.Intervals) != 5 {
		t.Fatalf("?intervals=5 kept %d intervals", len(p.Sched.Intervals))
	}
	if p.Sched.Intervals[4].Task != 99 {
		t.Fatalf("kept intervals should be the newest; last task = %d", p.Sched.Intervals[4].Task)
	}
}

func TestSetupCLIWritesSnapshot(t *testing.T) {
	Disable()
	path := filepath.Join(t.TempDir(), "sched.json")
	flush, err := SetupCLI(Config{SchedPath: path}, obs.CLIConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !Enabled() {
		t.Fatal("-sched did not enable lane recording")
	}
	f := Begin("phase.s", 2, 1)
	for i := 0; i < 2; i++ {
		t0 := f.Start()
		f.Task(0, i, t0)
	}
	f.End()
	if err := flush(); err != nil {
		t.Fatal(err)
	}
	Disable()
	s, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Enabled || s.FanoutsTotal != 1 || len(s.Labels) != 1 || s.Labels[0].Label != "phase.s" {
		t.Fatalf("snapshot file = %+v", s)
	}
}

func TestSetupCLIRejectsUnwritablePath(t *testing.T) {
	Disable()
	defer Disable()
	if _, err := SetupCLI(Config{SchedPath: filepath.Join(t.TempDir(), "no", "such", "dir.json")}, obs.CLIConfig{}); err == nil {
		t.Fatal("SetupCLI accepted an unwritable -sched path")
	}
}

func TestSetupCLINoopWithoutFlags(t *testing.T) {
	Disable()
	flush, err := SetupCLI(Config{}, obs.CLIConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if Enabled() {
		t.Fatal("SetupCLI enabled recording with no flags set")
	}
	if err := flush(); err != nil {
		t.Fatal(err)
	}
}

func TestReadSnapshotFileErrors(t *testing.T) {
	if _, err := ReadSnapshotFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshotFile(bad); err == nil {
		t.Error("malformed file accepted")
	}
}
