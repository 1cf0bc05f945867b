// Package latency is the request-lifecycle attribution layer of the
// simulator: it decomposes every DRAM-bound memory request's end-to-end
// latency into the stages of the memory path and charges every core
// stall cycle to the stage that caused it.
//
// The mechanism mirrors internal/metrics' design constraints:
//
//   - Disabled-by-default, zero overhead when off. The memory system
//     creates a Recorder only when it is built with a metrics registry;
//     with no recorder, requests carry a nil *ReqLat and every producer
//     guards its stamp behind one nil check.
//   - Observation only. Timestamps are copies of cycle values the
//     simulation already computed; nothing here schedules events or
//     mutates component state, so capture on/off runs are bit-identical
//     (pinned by bench's TestLatencyCaptureDoesNotPerturbResults).
//   - Conservation by construction. Spans are differences along a
//     monotone clamped chain of timestamps from request start to core
//     unstall, so they always sum exactly to the measured end-to-end
//     latency — the conservation tests then pin that the *interesting*
//     stamps (CAS, burst completion) land where the DDR timing says.
//
// The lifecycle of a demand miss, and the span each edge becomes:
//
//	access start ──cache_lookup──▶ controller enqueue
//	             ──queue_wait────▶ first command issued (ACT/PRE/RD)
//	             ──bank_conflict─▶ CAS (RD) issue
//	             ──data_transfer─▶ data burst completion
//	             ──fill──────────▶ waiter resume (core unstall)
//
// A request that coalesces onto an existing MSHR entry instead charges
// everything up to the burst completion as mshr_wait. Stall accounting
// charges the same spans, clipped to start one cycle later (the issue
// slot retires as an instruction, not a stall), plus the purely
// core-side stages: L1-hit and L2-hit latencies and store-buffer-full
// waits. Per core, the stage totals sum exactly to the core's
// mem_stall_cycles counter.
package latency

import (
	"fmt"

	"gsdram/internal/metrics"
	"gsdram/internal/sim"
)

// Span indexes the request-lifecycle spans (the decomposition of one
// DRAM-bound request's end-to-end latency).
type Span int

const (
	SpanCacheLookup  Span = iota // L1+L2 tag checks before the fetch leaves
	SpanMSHRWait                 // coalesced waiter: an earlier miss is already in flight
	SpanQueueWait                // controller enqueue to the first command issued
	SpanBankConflict             // PRE/ACT work before the CAS could issue
	SpanDataTransfer             // CAS issue to the end of the data burst
	SpanFill                     // burst completion to core unstall (incl. shuffle latency)
	NumSpans
)

var spanNames = [NumSpans]string{
	"cache_lookup", "mshr_wait", "queue_wait", "bank_conflict", "data_transfer", "fill",
}

func (s Span) String() string {
	if s < 0 || s >= NumSpans {
		return "unknown"
	}
	return spanNames[s]
}

// Stage indexes the core-stall attribution stages: the six request spans
// plus the stall causes that never reach DRAM.
type Stage int

const (
	// The first NumSpans stages alias the request spans one-to-one.
	StageL1Hit    Stage = Stage(NumSpans) + iota // L1 hit latency beyond the issue slot
	StageL2Hit                                   // L2 hit latency beyond L1
	StageStoreBuf                                // store retired into a full store buffer
	NumStages
)

var stageNames = [NumStages]string{
	"cache_lookup", "mshr_wait", "queue_wait", "bank_conflict", "data_transfer", "fill",
	"l1_hit", "l2_hit", "store_buffer",
}

func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// StageNames returns every stall-attribution stage name in stage order.
// Consumers of run documents (e.g. `gsbench explain`) iterate this list
// so stages absent from a document — stages a run never charged — are
// treated as zero rather than silently skipped.
func StageNames() []string {
	out := make([]string, NumStages)
	for i := range out {
		out[i] = Stage(i).String()
	}
	return out
}

// ReqLat carries the cycle timestamps of one in-flight fetch. The memory
// system owns one per MSHR entry (pooled, so stamping never allocates)
// and hands the controller a pointer through memctrl.Request.Lat; the
// controller stamps command times as it schedules the request. The zero
// value of every timestamp means "not reached" — legal because every
// stamp happens strictly after cycle 0 (an access at cycle 0 reaches the
// controller only after the L1+L2 lookup latency).
type ReqLat struct {
	// MSHRAlloc is when the MSHR entry was allocated (the access time of
	// the first waiter).
	MSHRAlloc sim.Cycle
	// Enqueue is when the controller accepted the request; FirstSched is
	// the first cycle the FR-FCFS scheduler considered it issuable work.
	Enqueue    sim.Cycle
	FirstSched sim.Cycle
	// FirstCmd is the first DDR command issued on the request's behalf
	// (ACT, PRE, or the RD itself on a row hit); CAS is the RD issue;
	// Done is the end of the data burst.
	FirstCmd sim.Cycle
	CAS      sim.Cycle
	Done     sim.Cycle
	// Forwarded marks a read served from the write queue (no DRAM
	// commands; Done is the controller pass-through completion).
	Forwarded bool
	// Channel/Rank/Bank locate the request for the per-bank histograms
	// and the Perfetto flow events.
	Channel, Rank, Bank int
}

// Breakdown is one waiter's span decomposition in cycles.
type Breakdown [NumSpans]sim.Cycle

// Sum returns the total of all spans — by construction the waiter's
// end-to-end latency.
func (b Breakdown) Sum() sim.Cycle {
	var t sim.Cycle
	for _, v := range b {
		t += v
	}
	return t
}

// Spans decomposes the interval [base, unstall) along the request's
// timestamp chain. Each timestamp is clamped into the remaining interval,
// so the spans always sum to unstall-base even when a stamp is missing
// (zero) or — as in the controller-gather ablation, where several donor
// requests share one ReqLat — not perfectly ordered. A coalesced waiter
// joined an entry whose fetch was already in flight: everything up to the
// burst completion is mshr_wait.
func (l *ReqLat) Spans(base, unstall sim.Cycle, coalesced bool) Breakdown {
	var out Breakdown
	t := base
	step := func(ts sim.Cycle) sim.Cycle {
		if ts < t {
			ts = t
		}
		if ts > unstall {
			ts = unstall
		}
		d := ts - t
		t = ts
		return d
	}
	if coalesced {
		out[SpanMSHRWait] = step(l.Done)
		out[SpanFill] = unstall - t
		return out
	}
	out[SpanCacheLookup] = step(l.Enqueue)
	firstCmd := l.FirstCmd
	if firstCmd == 0 {
		// No DDR command (forwarded read): the whole controller residency
		// is queue wait.
		firstCmd = l.Done
	}
	out[SpanQueueWait] = step(firstCmd)
	if l.CAS != 0 {
		out[SpanBankConflict] = step(l.CAS)
	}
	out[SpanDataTransfer] = step(l.Done)
	out[SpanFill] = unstall - t
	return out
}

// ReqTrace is one request lifecycle as the rig's event log captures it
// (internal/flight), for the Perfetto flow events.
type ReqTrace struct {
	Core       int       `json:"core"`
	Start      sim.Cycle `json:"start"`
	Unstall    sim.Cycle `json:"unstall"`
	Enqueue    sim.Cycle `json:"enqueue,omitempty"`
	FirstSched sim.Cycle `json:"first_sched,omitempty"`
	FirstCmd   sim.Cycle `json:"first_cmd,omitempty"`
	CAS        sim.Cycle `json:"cas,omitempty"`
	Done       sim.Cycle `json:"done,omitempty"`
	Pattern    int       `json:"pattern"`
	Coalesced  bool      `json:"coalesced,omitempty"`
	Forwarded  bool      `json:"forwarded,omitempty"`
	Blocking   bool      `json:"blocking,omitempty"`
	Channel    int       `json:"channel"`
	Rank       int       `json:"rank"`
	Bank       int       `json:"bank"`
}

// classHists is one pattern class's span histograms.
type classHists struct {
	total metrics.Histogram
	spans [NumSpans]metrics.Histogram
}

// Recorder aggregates request breakdowns and core stall attribution for
// one simulation rig. All storage is plain counters and histograms that
// register into the rig's metrics registry at construction; recording is
// increments only, so the instrumented hot paths stay allocation-free.
type Recorder struct {
	// classes[0] is pattern-0 (ordinary cache lines), classes[1] is the
	// gather patterns (non-zero pattern IDs).
	classes [2]classHists

	channels, ranks, banks int
	chTotal                []metrics.Histogram // per channel
	bankTotal              []metrics.Histogram // per (channel, rank, bank)

	// stall[core][stage] is the core's stall cycles charged to stage.
	stall [][NumStages]metrics.Counter
}

var classNames = [2]string{"p0", "gather"}

// NewRecorder returns a recorder for a rig with the given core count and
// DRAM geometry, registering every histogram and stall counter into reg.
func NewRecorder(cores, channels, ranks, banks int, reg *metrics.Registry) *Recorder {
	r := &Recorder{
		channels:  channels,
		ranks:     ranks,
		banks:     banks,
		chTotal:   make([]metrics.Histogram, channels),
		bankTotal: make([]metrics.Histogram, channels*ranks*banks),
		stall:     make([][NumStages]metrics.Counter, cores),
	}
	for ci := range r.classes {
		c := &r.classes[ci]
		p := "latency." + classNames[ci]
		reg.RegisterHistogram(p+".total", &c.total)
		for si := Span(0); si < NumSpans; si++ {
			reg.RegisterHistogram(p+"."+si.String(), &c.spans[si])
		}
	}
	for ch := range r.chTotal {
		reg.RegisterHistogram(fmt.Sprintf("latency.ch%d.total", ch), &r.chTotal[ch])
	}
	for i := range r.bankTotal {
		ch, rk, ba := r.bankLoc(i)
		reg.RegisterHistogram(fmt.Sprintf("latency.ch%d.rk%d.bank%d.total", ch, rk, ba), &r.bankTotal[i])
	}
	for core := range r.stall {
		for st := Stage(0); st < NumStages; st++ {
			reg.RegisterCounter(fmt.Sprintf("core.%d.stall.%s", core, st), &r.stall[core][st])
		}
	}
	return r
}

// bankIndex flattens (channel, rank, bank); bankLoc inverts it.
func (r *Recorder) bankIndex(ch, rk, ba int) int { return (ch*r.ranks+rk)*r.banks + ba }
func (r *Recorder) bankLoc(i int) (ch, rk, ba int) {
	return i / (r.ranks * r.banks), (i / r.banks) % r.ranks, i % r.banks
}

// ObserveMiss records one waiter's completed request: start is the
// waiter's access time, unstall the cycle its continuation runs. The
// request-level histograms always observe the full [start, unstall)
// interval; when the waiter blocked its core (every demand load and
// blocking store), the core's stall counters are charged with the same
// spans clipped to [start+1, unstall) — the first cycle is the op's
// issue slot, which the core retires as an instruction, not a stall.
func (r *Recorder) ObserveMiss(core int, start, unstall sim.Cycle, coalesced, blocking bool, pattern int, rl *ReqLat) {
	ci := 0
	if pattern != 0 {
		ci = 1
	}
	c := &r.classes[ci]
	c.total.Observe(uint64(unstall - start))
	spans := rl.Spans(start, unstall, coalesced)
	for si, v := range spans {
		c.spans[si].Observe(uint64(v))
	}
	if rl.Channel >= 0 && rl.Channel < r.channels {
		r.chTotal[rl.Channel].Observe(uint64(unstall - start))
		if rl.Rank >= 0 && rl.Rank < r.ranks && rl.Bank >= 0 && rl.Bank < r.banks {
			r.bankTotal[r.bankIndex(rl.Channel, rl.Rank, rl.Bank)].Observe(uint64(unstall - start))
		}
	}
	if blocking && core >= 0 && core < len(r.stall) {
		stallSpans := rl.Spans(start+1, unstall, coalesced)
		for si, v := range stallSpans {
			r.stall[core][si] += metrics.Counter(v)
		}
	}
}

// ChargeStall charges core stall cycles to a non-request stage (L1 hit,
// L2 hit, store-buffer wait).
func (r *Recorder) ChargeStall(core int, st Stage, cycles sim.Cycle) {
	if core >= 0 && core < len(r.stall) {
		r.stall[core][st] += metrics.Counter(cycles)
	}
}

// Cores returns the number of cores the recorder tracks stalls for.
func (r *Recorder) Cores() int {
	if r == nil {
		return 0
	}
	return len(r.stall)
}

// StallCycles returns the cycles charged to (core, stage).
func (r *Recorder) StallCycles(core int, st Stage) uint64 {
	return r.stall[core][st].Value()
}

// Seen returns the number of requests observed: each lands in exactly
// one pattern class's total histogram.
func (r *Recorder) Seen() uint64 {
	if r == nil {
		return 0
	}
	return r.classes[0].total.Count() + r.classes[1].total.Count()
}

// Class returns the histograms of one pattern class for testing: the
// total and the per-span histograms.
func (r *Recorder) Class(gather bool) (total *metrics.Histogram, spans []*metrics.Histogram) {
	c := &r.classes[0]
	if gather {
		c = &r.classes[1]
	}
	spans = make([]*metrics.Histogram, NumSpans)
	for i := range c.spans {
		spans[i] = &c.spans[i]
	}
	return &c.total, spans
}
