package obs

import (
	"bytes"
	"net/http"
	"strings"
	"testing"
	"time"
)

// fixedClock steps 1ms per reading, giving deterministic timestamps.
func fixedClock() func() time.Time {
	t := time.UnixMicro(1_700_000_000_000_000).UTC()
	return func() time.Time {
		t = t.Add(time.Millisecond)
		return t
	}
}

// TestJSONLSinkGolden pins the JSON-lines schema and record ordering: spans
// are emitted at End (completion order), events at call time. Root spans
// omit the parent field entirely, so traces without causal structure are
// byte-identical to the pre-parent format.
func TestJSONLSinkGolden(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	tr := NewTracer(sink)
	tr.SetNow(fixedClock())

	sp := tr.StartSpan("chase.run", Int("tgds", 3))                               // clock tick 1
	tr.Event("chase.round", Int("round", 1), Int("delta", 5), Str("kb", "synth")) // tick 2
	inner := tr.StartSpan("homo.search")                                          // tick 3
	inner.End(Int("nodes", 7))                                                    // tick 4
	sp.End(Int("rounds", 2))                                                      // tick 5
	if err := sink.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	got := buf.String()
	want := strings.Join([]string{
		`{"type":"event","name":"chase.round","start_us":1700000000002000,"attrs":{"delta":5,"kb":"synth","round":1}}`,
		`{"type":"span","name":"homo.search","span":2,"start_us":1700000000003000,"dur_us":1000,"attrs":{"nodes":7}}`,
		`{"type":"span","name":"chase.run","span":1,"start_us":1700000000001000,"dur_us":4000,"attrs":{"rounds":2,"tgds":3}}`,
	}, "\n") + "\n"
	if got != want {
		t.Errorf("trace output mismatch:\n got: %s\nwant: %s", got, want)
	}
}

// TestJSONLSinkParentGolden pins the parent field: children carry the id of
// the span that spawned them, whether opened via Child or an explicit id
// through StartSpanUnder.
func TestJSONLSinkParentGolden(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	tr := NewTracer(sink)
	tr.SetNow(fixedClock())

	root := tr.StartSpan("inquiry.run")              // tick 1, id 1
	q := root.Child("inquiry.question", Int("q", 1)) // tick 2, id 2
	chase := tr.StartSpanUnder(q.ID(), "chase.run")  // tick 3, id 3
	chase.End(Int("rounds", 1))                      // tick 4
	q.End()                                          // tick 5
	root.End()                                       // tick 6
	if err := sink.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	got := buf.String()
	want := strings.Join([]string{
		`{"type":"span","name":"chase.run","span":3,"parent":2,"start_us":1700000000003000,"dur_us":1000,"attrs":{"rounds":1}}`,
		`{"type":"span","name":"inquiry.question","span":2,"parent":1,"start_us":1700000000002000,"dur_us":3000,"attrs":{"q":1}}`,
		`{"type":"span","name":"inquiry.run","span":1,"start_us":1700000000001000,"dur_us":5000}`,
	}, "\n") + "\n"
	if got != want {
		t.Errorf("trace output mismatch:\n got: %s\nwant: %s", got, want)
	}
}

// TestJSONLSinkBuffers verifies writes stay in the buffer until Flush —
// the whole point of the buffered sink — and that Flush drains them.
func TestJSONLSinkBuffers(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	sink.Write(Record{Type: "event", Name: "e"})
	if buf.Len() != 0 {
		t.Errorf("record reached writer before Flush (%d bytes)", buf.Len())
	}
	if err := sink.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if buf.Len() == 0 {
		t.Error("Flush left the buffer empty")
	}
}

func TestNilSinkIsInert(t *testing.T) {
	tr := NewTracer(nil)
	if tr.Active() {
		t.Fatal("tracer active with nil sink")
	}
	sp := tr.StartSpan("x")
	sp.End()
	tr.Event("y")
	// Inert spans must also be allocation-free when no attrs are passed —
	// including the parented variants, which sit on the same hot paths.
	allocs := testing.AllocsPerRun(1000, func() {
		s := tr.StartSpan("hot")
		c := s.Child("hotter")
		c.End()
		s.End()
		u := tr.StartSpanUnder(42, "hottest")
		u.End()
	})
	if allocs != 0 {
		t.Fatalf("inert span allocates: %.1f allocs/op", allocs)
	}
	if id := tr.StartSpan("x").ID(); id != 0 {
		t.Errorf("inert span ID = %d, want 0", id)
	}
	if tr.StartSpan("x").Live() {
		t.Error("inert span reports Live")
	}
}

// TestClockNoMutex pins the satellite fix: reading the clock is one atomic
// load, so concurrent StartSpan/Event calls never contend on a tracer lock
// (the -race leg of verify2 would catch an unsynchronized replacement).
func TestClockSwapConcurrent(t *testing.T) {
	tr := NewTracer(NewRingSink(64))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			tr.SetNow(fixedClock())
			tr.SetNow(nil)
		}
	}()
	for i := 0; i < 100; i++ {
		sp := tr.StartSpan("s")
		tr.Event("e")
		sp.End()
	}
	<-done
}

func TestMultiSinkFansOut(t *testing.T) {
	a, b := NewRingSink(4), NewRingSink(4)
	tr := NewTracer(MultiSink(a, b))
	tr.Event("e")
	if len(a.Records()) != 1 || len(b.Records()) != 1 {
		t.Errorf("records = %d/%d, want 1/1", len(a.Records()), len(b.Records()))
	}
}

func TestRingSinkWrapAround(t *testing.T) {
	s := NewRingSink(3)
	tr := NewTracer(s)
	tr.SetNow(fixedClock())
	for i := 1; i <= 5; i++ {
		tr.Event("e", Int("i", i))
	}
	recs := s.Records()
	if len(recs) != 3 {
		t.Fatalf("len = %d, want 3", len(recs))
	}
	for i, want := range []int64{3, 4, 5} {
		if got := recs[i].Attrs["i"].(int64); got != want {
			t.Errorf("rec %d: i = %v, want %d", i, got, want)
		}
	}
	if s.Total() != 5 {
		t.Errorf("Total = %d, want 5", s.Total())
	}
}

func TestSinkSwapMidSpan(t *testing.T) {
	ring := NewRingSink(8)
	tr := NewTracer(ring)
	sp := tr.StartSpan("long")
	tr.SetSink(nil)
	sp.End() // sink gone: dropped, no panic
	if got := len(ring.Records()); got != 0 {
		t.Errorf("record written after sink removed: %d", got)
	}
}

func TestServeDebug(t *testing.T) {
	addr, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on localhost: %v", err)
	}
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatalf("GET /debug/vars: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
}
