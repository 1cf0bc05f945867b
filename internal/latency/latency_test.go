package latency

import (
	"fmt"
	"testing"
	"testing/quick"

	"gsdram/internal/metrics"
	"gsdram/internal/sim"
)

func TestSpansConservationProperty(t *testing.T) {
	// For ANY timestamp record — ordered, partially stamped, or garbage —
	// the spans must sum exactly to unstall-base. Conservation is by
	// construction; this pins it against refactors.
	f := func(enq, sched, first, cas, done uint16, base8, span8 uint8, coalesced bool) bool {
		base := sim.Cycle(base8)
		unstall := base + sim.Cycle(span8)
		rl := &ReqLat{
			Enqueue:    sim.Cycle(enq),
			FirstSched: sim.Cycle(sched),
			FirstCmd:   sim.Cycle(first),
			CAS:        sim.Cycle(cas),
			Done:       sim.Cycle(done),
		}
		return rl.Spans(base, unstall, coalesced).Sum() == unstall-base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestSpansWellOrderedChain(t *testing.T) {
	// A fully stamped, well-ordered record decomposes into exactly the
	// lifecycle edges.
	rl := &ReqLat{
		MSHRAlloc: 100,
		Enqueue:   121, // cache_lookup = 21
		FirstCmd:  150, // queue_wait = 29
		CAS:       205, // bank_conflict = 55
		Done:      280, // data_transfer = 75
	}
	b := rl.Spans(100, 283, false) // fill = 3
	want := Breakdown{}
	want[SpanCacheLookup] = 21
	want[SpanQueueWait] = 29
	want[SpanBankConflict] = 55
	want[SpanDataTransfer] = 75
	want[SpanFill] = 3
	if b != want {
		t.Fatalf("spans = %v, want %v", b, want)
	}
}

func TestSpansRowHit(t *testing.T) {
	// Row hit: the first command IS the CAS, so bank_conflict is zero.
	rl := &ReqLat{Enqueue: 121, FirstCmd: 140, CAS: 140, Done: 215}
	b := rl.Spans(100, 215, false)
	if b[SpanBankConflict] != 0 || b[SpanQueueWait] != 19 || b[SpanDataTransfer] != 75 {
		t.Fatalf("row-hit spans = %v", b)
	}
}

func TestSpansForwarded(t *testing.T) {
	// Forwarded read: no DDR commands, Done is the pass-through
	// completion; the controller residency counts as queue_wait.
	rl := &ReqLat{Enqueue: 121, Done: 131, Forwarded: true}
	b := rl.Spans(100, 131, false)
	if b[SpanCacheLookup] != 21 || b[SpanQueueWait] != 10 || b[SpanDataTransfer] != 0 {
		t.Fatalf("forwarded spans = %v", b)
	}
}

func TestSpansCoalesced(t *testing.T) {
	rl := &ReqLat{Enqueue: 50, FirstCmd: 60, CAS: 60, Done: 140}
	b := rl.Spans(110, 145, true)
	if b[SpanMSHRWait] != 30 || b[SpanFill] != 5 {
		t.Fatalf("coalesced spans = %v", b)
	}
	if b[SpanCacheLookup] != 0 || b[SpanQueueWait] != 0 {
		t.Fatalf("coalesced waiter charged non-MSHR spans: %v", b)
	}
	// A waiter that joined AFTER the burst completed (same-cycle, before
	// the fill event dispatched) must not underflow.
	b = rl.Spans(142, 145, true)
	if b[SpanMSHRWait] != 0 || b[SpanFill] != 3 {
		t.Fatalf("late coalesced spans = %v", b)
	}
}

func TestRecorderObserveAndStalls(t *testing.T) {
	reg := metrics.New()
	r := NewRecorder(2, 1, 1, 8, reg)

	rl := &ReqLat{Enqueue: 121, FirstCmd: 140, CAS: 140, Done: 215, Channel: 0, Rank: 0, Bank: 3}
	r.ObserveMiss(0, 100, 218, false, true, 0, rl)
	r.ObserveMiss(1, 105, 218, true, true, 5, rl)
	r.ObserveMiss(0, 100, 218, false, false, 0, rl) // non-blocking: histograms only
	r.ChargeStall(0, StageL1Hit, 2)
	r.ChargeStall(1, StageStoreBuf, 7)

	p0Total, p0Spans := r.Class(false)
	if p0Total.Count() != 2 || p0Total.Sum() != 2*118 {
		t.Fatalf("p0 total count=%d sum=%d", p0Total.Count(), p0Total.Sum())
	}
	var spanSum uint64
	for _, h := range p0Spans {
		spanSum += h.Sum()
	}
	if spanSum != p0Total.Sum() {
		t.Fatalf("p0 span sums %d != total sum %d", spanSum, p0Total.Sum())
	}
	gTotal, gSpans := r.Class(true)
	if gTotal.Count() != 1 || gTotal.Sum() != 113 {
		t.Fatalf("gather total count=%d sum=%d", gTotal.Count(), gTotal.Sum())
	}
	var gSum uint64
	for _, h := range gSpans {
		gSum += h.Sum()
	}
	if gSum != gTotal.Sum() {
		t.Fatalf("gather span sums %d != total %d", gSum, gTotal.Sum())
	}

	// Blocking waiters charge their stalls clipped to the issue slot:
	// core 0 charged 117 request cycles + 2 L1-hit cycles.
	var c0 uint64
	for st := Stage(0); st < NumStages; st++ {
		c0 += r.StallCycles(0, st)
	}
	if c0 != 117+2 {
		t.Fatalf("core 0 stall total = %d, want 119", c0)
	}
	if r.StallCycles(1, Stage(SpanMSHRWait)) == 0 {
		t.Fatal("coalesced waiter charged no mshr_wait")
	}
	if r.StallCycles(1, StageStoreBuf) != 7 {
		t.Fatalf("store-buffer stall = %d", r.StallCycles(1, StageStoreBuf))
	}

	if r.Seen() != 3 {
		t.Fatalf("seen=%d, want 3", r.Seen())
	}

	// Registered names: classes, channel, bank, per-core stages.
	names := map[string]bool{}
	for _, n := range reg.Names() {
		names[n] = true
	}
	for _, want := range []string{
		"latency.p0.total", "latency.p0.queue_wait", "latency.gather.data_transfer",
		"latency.ch0.total", "latency.ch0.rk0.bank3.total",
		"core.0.stall.cache_lookup", "core.1.stall.store_buffer",
	} {
		if !names[want] {
			t.Errorf("metric %q not registered (have %d names)", want, len(names))
		}
	}
}

func TestStageNames(t *testing.T) {
	seen := map[string]bool{}
	for st := Stage(0); st < NumStages; st++ {
		n := st.String()
		if n == "unknown" || seen[n] {
			t.Fatalf("stage %d name %q invalid or duplicate", st, n)
		}
		seen[n] = true
	}
	// Span and stage names agree on the shared prefix.
	for sp := Span(0); sp < NumSpans; sp++ {
		if sp.String() != Stage(sp).String() {
			t.Fatalf("span %d / stage %d name mismatch", sp, sp)
		}
	}
	if fmt.Sprint(Span(99)) != "unknown" || fmt.Sprint(Stage(99)) != "unknown" {
		t.Fatal("out-of-range names")
	}
}
