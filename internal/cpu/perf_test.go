package cpu

import (
	"testing"

	"gsdram/internal/flight"
	"gsdram/internal/latency"
	"gsdram/internal/memsys"
	"gsdram/internal/metrics"
	"gsdram/internal/sim"
)

// hitStream replays loads of one cache line `remaining` times; refilling
// the counter and restarting the core replays another batch against the
// now-warm L1.
type hitStream struct {
	remaining int
	op        Op
}

func (s *hitStream) Next() (Op, bool) {
	if s.remaining == 0 {
		return Op{}, false
	}
	s.remaining--
	return s.op, true
}

// newHitRig returns a core whose L1 already holds the stream's line, so
// every subsequent batch of loads runs entirely on the fast path.
func newHitRig(tb testing.TB) (*sim.EventQueue, *Core, *hitStream) {
	tb.Helper()
	q := &sim.EventQueue{}
	mem, err := memsys.New(memsys.DefaultConfig(1), q)
	if err != nil {
		tb.Fatal(err)
	}
	s := &hitStream{op: Load(0x40, 0x1)}
	c := New(0, q, mem, s, nil)
	// Warm: the first batch takes the miss and fills the L1, and grows the
	// event queue's free list to steady state.
	s.remaining = 64
	c.Start(0)
	q.Run()
	return q, c, s
}

// BenchmarkCoreStepL1Hit measures the per-op cost of the event-horizon
// fast path: consecutive L1-hit loads executed inline, without a heap
// event per op.
func BenchmarkCoreStepL1Hit(b *testing.B) {
	q, c, s := newHitRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	s.remaining = b.N
	c.Start(q.Now())
	q.Run()
}

// BenchmarkCoreStepL1HitNoInline is the pure event-driven reference: the
// same L1-hit loads, each taking the Schedule/dispatch route. The gap to
// BenchmarkCoreStepL1Hit is the tentpole speedup at the per-op level.
func BenchmarkCoreStepL1HitNoInline(b *testing.B) {
	q, c, s := newHitRig(b)
	c.SetNoInline(true)
	b.ReportAllocs()
	b.ResetTimer()
	s.remaining = b.N
	c.Start(q.Now())
	q.Run()
}

// TestCoreStepL1HitZeroAllocs pins the fast path's allocation behaviour:
// a batch of L1-hit loads performs zero heap allocations.
func TestCoreStepL1HitZeroAllocs(t *testing.T) {
	q, c, s := newHitRig(t)
	allocs := testing.AllocsPerRun(10, func() {
		s.remaining = 1000
		c.Start(q.Now())
		q.Run()
	})
	if allocs != 0 {
		t.Errorf("L1-hit fast path allocates %v times per 1000-op batch, want 0", allocs)
	}
}

// TestCoreStepL1HitZeroAllocsWithMetrics pins the telemetry design
// point: with a metrics registry wired through the whole hierarchy and
// an event log keeping heads but no tails, the hot path still performs
// zero heap allocations — counters are plain struct fields the registry
// merely points at, and the log's heads only grow on DRAM-bound events
// and stalls. (The epoch
// sampler is deliberately absent: it allocates one row per epoch, off
// the hot path, and is exercised by the telemetry package's own tests.)
func TestCoreStepL1HitZeroAllocsWithMetrics(t *testing.T) {
	q := &sim.EventQueue{}
	reg := metrics.New()
	cfg := memsys.DefaultConfig(1)
	cfg.Metrics = reg
	cfg.Log = flight.New(1000, 1000, 1000, 0)
	mem, err := memsys.New(cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	s := &hitStream{op: Load(0x40, 0x1)}
	c := New(0, q, mem, s, nil)
	c.RegisterMetrics(reg, "core.0")
	s.remaining = 64
	c.Start(0)
	q.Run()
	if reg.Len() < 20 {
		t.Fatalf("registry has %d metrics, want >= 20", reg.Len())
	}
	// The registry also brings up the latency attribution recorder: its
	// stall counters and span histograms must be registered, and the hit
	// fast path must be charging the L1-hit stage — while still not
	// allocating (checked below).
	rec := mem.LatencyRecorder()
	if rec == nil {
		t.Fatal("no latency recorder with a registry configured")
	}
	if _, ok := reg.Export()["core.0.stall.l1_hit"]; !ok {
		t.Fatal("latency stall counters not registered")
	}
	if _, ok := reg.Export()["latency.p0.total"]; !ok {
		t.Fatal("latency span histograms not registered")
	}
	allocs := testing.AllocsPerRun(10, func() {
		s.remaining = 1000
		c.Start(q.Now())
		q.Run()
	})
	if allocs != 0 {
		t.Errorf("L1-hit fast path with metrics registered allocates %v times per 1000-op batch, want 0", allocs)
	}
	if rec.StallCycles(0, latency.StageL1Hit) == 0 {
		t.Error("L1-hit stalls were not attributed")
	}
	if cfg.Log.PhasesSeen() != 1 || len(cfg.Log.Commands()) == 0 || len(cfg.Log.Requests()) != 1 {
		t.Errorf("log heads: %d phases seen, %d commands, %d requests; want the one cold miss",
			cfg.Log.PhasesSeen(), len(cfg.Log.Commands()), len(cfg.Log.Requests()))
	}
}

// TestCoreStepL1HitZeroAllocsWithFlight pins the flight-recorder design
// point: with a full metrics registry AND an event log keeping component
// tails — which record every core memory op — the L1-hit fast path
// still performs zero heap allocations. The tails are fixed-size arrays
// written in place; arming them must never cost the hot path an
// allocation.
func TestCoreStepL1HitZeroAllocsWithFlight(t *testing.T) {
	q := &sim.EventQueue{}
	reg := metrics.New()
	fr := flight.New(1000, 1000, 1000, flight.DefaultDepth)
	cfg := memsys.DefaultConfig(1)
	cfg.Metrics = reg
	cfg.Log = fr
	mem, err := memsys.New(cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	s := &hitStream{op: Load(0x40, 0x1)}
	c := New(0, q, mem, s, nil)
	c.RegisterMetrics(reg, "core.0")
	s.remaining = 64
	c.Start(0)
	q.Run()
	allocs := testing.AllocsPerRun(10, func() {
		s.remaining = 1000
		c.Start(q.Now())
		q.Run()
	})
	if allocs != 0 {
		t.Errorf("L1-hit fast path with flight recorder armed allocates %v times per 1000-op batch, want 0", allocs)
	}
	// And the recorder must actually have seen the ops: every load is
	// recorded at issue, hits included.
	if fr.Seen(flight.CompCore) == 0 {
		t.Error("armed flight recorder saw no core ops")
	}
}
