package memsys

import (
	"strings"
	"testing"

	"gsdram/internal/flight"
	"gsdram/internal/latency"
	"gsdram/internal/metrics"
	"gsdram/internal/sim"
)

func newLatHarness(t *testing.T, cores int, mutate func(*Config)) (*harness, *metrics.Registry) {
	t.Helper()
	reg := metrics.New()
	h := newHarness(t, cores, func(c *Config) {
		c.Metrics = reg
		c.Log = flight.New(0, 0, 64, 0)
		if mutate != nil {
			mutate(c)
		}
	})
	return h, reg
}

// TestLatencyUncontendedMiss pins the span decomposition of a single cold
// miss on an idle system against the configured timing: cache_lookup is
// exactly the L1+L2 latency, data_transfer is exactly the DDR CL + burst
// time, and the spans sum to the measured end-to-end latency.
func TestLatencyUncontendedMiss(t *testing.T) {
	h, _ := newLatHarness(t, 1, nil)
	a := Access{Core: 0, Addr: addr(0, 10, 0)}
	d := h.access(0, a)
	h.q.Run()

	rec := h.s.LatencyRecorder()
	if rec == nil {
		t.Fatal("no recorder with a registry configured")
	}
	traces := h.s.Log().Requests()
	if len(traces) != 1 {
		t.Fatalf("captured %d traces, want 1", len(traces))
	}
	tr := traces[0]
	rl := &latency.ReqLat{
		Enqueue: tr.Enqueue, FirstSched: tr.FirstSched, FirstCmd: tr.FirstCmd,
		CAS: tr.CAS, Done: tr.Done,
	}
	spans := rl.Spans(tr.Start, tr.Unstall, tr.Coalesced)
	if got, want := spans.Sum(), tr.Unstall-tr.Start; got != want {
		t.Fatalf("span sum %d != end-to-end %d", got, want)
	}
	if tr.Unstall != *d {
		t.Fatalf("unstall %d != completion %d", tr.Unstall, *d)
	}

	cfg := h.s.cfg
	if got, want := spans[latency.SpanCacheLookup], cfg.L1Latency+cfg.L2Latency; got != want {
		t.Errorf("cache_lookup = %d, want %d", got, want)
	}
	scaled := cfg.Mem.Timing.Scaled(cfg.Mem.ClockRatio)
	if got, want := spans[latency.SpanDataTransfer], sim.Cycle(scaled.ReadDataCycles()); got != want {
		t.Errorf("data_transfer = %d, want CL+TBL = %d", got, want)
	}
	// Cold bank: the ACT (and its tRCD) lands in bank_conflict.
	if got, want := spans[latency.SpanBankConflict], sim.Cycle(scaled.TRCD); got != want {
		t.Errorf("bank_conflict = %d, want tRCD = %d", got, want)
	}
	if spans[latency.SpanMSHRWait] != 0 {
		t.Errorf("uncoalesced miss charged mshr_wait = %d", spans[latency.SpanMSHRWait])
	}
}

// TestLatencySpanConservation drives a contended multi-bank workload and
// checks, per pattern class, that the span histograms sum exactly to the
// total-latency histogram — conservation over every request, not just the
// easy ones.
func TestLatencySpanConservation(t *testing.T) {
	h, reg := newLatHarness(t, 2, nil)
	// Interleave reads and writes across banks and rows from two cores,
	// close enough together to queue behind each other.
	for i := 0; i < 120; i++ {
		a := Access{
			Core:  i % 2,
			Addr:  addr(i%8, 10+i%3, (i*7)%128),
			Write: i%5 == 0,
		}
		h.access(sim.Cycle(i*3), a)
	}
	h.q.Run()

	rec := h.s.LatencyRecorder()
	for _, gather := range []bool{false, true} {
		total, spans := rec.Class(gather)
		var sum uint64
		for _, sp := range spans {
			sum += sp.Sum()
		}
		if sum != total.Sum() {
			t.Errorf("gather=%v: span sum %d != total %d", gather, sum, total.Sum())
		}
		for _, sp := range spans {
			if sp.Count() != total.Count() {
				t.Errorf("gather=%v: span count %d != total count %d", gather, sp.Count(), total.Count())
			}
		}
	}
	total, _ := rec.Class(false)
	if total.Count() == 0 {
		t.Fatal("workload produced no misses")
	}

	// The per-channel and per-bank histograms partition the same totals.
	var chCount, bankCount uint64
	for name, v := range reg.Export() {
		he, ok := v.(metrics.HistogramExport)
		if !ok {
			continue
		}
		if strings.HasPrefix(name, "latency.ch") {
			if strings.Contains(name, ".bank") {
				bankCount += he.Count
			} else {
				chCount += he.Count
			}
		}
	}
	gTotal, _ := rec.Class(true)
	want := total.Count() + gTotal.Count()
	if chCount != want || bankCount != want {
		t.Errorf("channel/bank histogram counts %d/%d, want %d", chCount, bankCount, want)
	}
}

// TestLatencyCoalescedWaiters pins MSHR-wait attribution: a second access
// to an in-flight line charges mshr_wait, not queue/bank/data spans.
func TestLatencyCoalescedWaiters(t *testing.T) {
	h, _ := newLatHarness(t, 2, nil)
	a := Access{Core: 0, Addr: addr(0, 10, 0)}
	b := Access{Core: 1, Addr: addr(0, 10, 0)}
	h.access(0, a)
	h.access(40, b) // joins the outstanding MSHR entry
	h.q.Run()

	traces := h.s.Log().Requests()
	if len(traces) != 2 {
		t.Fatalf("captured %d traces, want 2", len(traces))
	}
	var sawCoalesced bool
	for _, tr := range traces {
		if !tr.Coalesced {
			continue
		}
		sawCoalesced = true
		if tr.Core != 1 || tr.Start != 40 {
			t.Errorf("coalesced trace core=%d start=%d", tr.Core, tr.Start)
		}
	}
	if !sawCoalesced {
		t.Fatal("no coalesced trace captured")
	}
	rec := h.s.LatencyRecorder()
	if rec.StallCycles(1, latency.Stage(latency.SpanMSHRWait)) == 0 {
		t.Error("coalesced waiter charged no mshr_wait stall")
	}
	if rec.StallCycles(1, latency.Stage(latency.SpanQueueWait)) != 0 {
		t.Error("coalesced waiter charged queue_wait")
	}
}

// TestLatencyDisabledIsNil pins the disabled state: no registry, no
// recorder, and requests carry no lifecycle record.
func TestLatencyDisabledIsNil(t *testing.T) {
	h := newHarness(t, 1, nil)
	if h.s.LatencyRecorder() != nil {
		t.Fatal("recorder created without a registry")
	}
	h.access(0, Access{Core: 0, Addr: addr(0, 10, 0)})
	h.q.Run()
	// ChargeStoreBufferStall must be a safe no-op.
	h.s.ChargeStoreBufferStall(0, 100)
	if h.s.LatencyRecorder().Seen() != 0 {
		t.Fatal("nil recorder saw requests")
	}
}
