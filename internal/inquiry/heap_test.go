package inquiry

import (
	"runtime"
	"testing"

	"kbrepair/internal/core"
	"kbrepair/internal/parser"
	"kbrepair/internal/synth"
)

// TestSessionsKeepLiveHeapBounded runs repair sessions the way the
// repair-session benchmark does — each on a freshly parsed copy of one KB
// text — and bounds the live heap after a collection. A KB's compiled rule
// set, plans included, belongs to the KB and is collected with it, so the
// sessions leave nothing behind. One text keeps the plan-info registry,
// which grows by distinct rule body, at a fixed size.
func TestSessionsKeepLiveHeapBounded(t *testing.T) {
	g, err := synth.Generate(synth.Params{Seed: 2, NumFacts: 200, InconsistencyRatio: 0.25, NumCDDs: 20, NumTGDs: 10})
	if err != nil {
		t.Fatal(err)
	}
	text := parser.Serialize(&parser.Document{Facts: g.KB.Facts.Atoms(), TGDs: g.KB.TGDs, CDDs: g.KB.CDDs})
	session := func(seed int64) {
		doc, err := parser.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		st, err := doc.Store()
		if err != nil {
			t.Fatal(err)
		}
		kb, err := core.NewKB(st, doc.TGDs, doc.CDDs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := New(kb, OptiMCD{}, NewSimulatedUser(seed), seed, Options{}).Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Consistent {
			t.Fatalf("session %d ended inconsistent", seed)
		}
	}
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	// The first session fills the process-wide registries (metrics, plan
	// annotations) that every later session reuses.
	session(0)
	before := live()
	const sessions, bound = 30, 1 << 20
	for i := int64(1); i <= sessions; i++ {
		session(i)
	}
	after := live()
	t.Logf("live heap %d -> %d KB", before>>10, after>>10)
	if after > before+bound {
		t.Fatalf("live heap grew %d KB over %d sessions, bound %d KB", (after-before)>>10, sessions, bound>>10)
	}
}
