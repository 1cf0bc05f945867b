// Package flight is a rig's event log: the one bounded, deterministic
// store for every event stream the simulator captures. Each stream keeps
// the first H records (its head), the last T records (its tail) and a
// count of every record seen. DDR commands keep both: the head feeds the
// Perfetto lanes and the tail feeds flight dumps. Stall phases and
// request lifecycles keep only a head. Cache line transitions, §4.1
// coherence actions, coalescer burst decisions, MSHR traffic and core
// memory ops keep only a tail, so a dump shows the last T events per
// component leading up to the point of interest — a divergence, a failed
// farm point, or the end of a run — however long the simulation ran.
//
// Tails are preallocated and heads grow by append up to their cap. Every
// record method is a no-op on a nil *Recorder, so an un-armed simulation
// pays one nil check. Events within a stream are recorded in simulated
// time order (the simulator processes events in cycle order), so logs
// are bit-identical across worker counts and inline/event-driven
// execution.
package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"gsdram/internal/dram"
	"gsdram/internal/gsdram"
	"gsdram/internal/latency"
	"gsdram/internal/memctrl"
	"gsdram/internal/sim"
)

// Component identifies which part of the machine recorded an event. Each
// component gets its own stream so a chatty component (DDR commands)
// cannot evict the history of a quiet one (coherence actions).
type Component uint8

const (
	CompDDR Component = iota
	CompCache
	CompCoherence
	CompCoalescer
	CompMSHR
	CompCore
	NumComponents
)

var componentNames = [NumComponents]string{
	"ddr", "cache", "coherence", "coalescer", "mshr", "core",
}

// String returns the component's dump name.
func (c Component) String() string {
	if int(c) < len(componentNames) {
		return componentNames[c]
	}
	return fmt.Sprintf("component(%d)", int(c))
}

// Kind identifies what happened.
type Kind uint8

const (
	// KindCommand is a DDR command leaving the controller (CompDDR).
	// Aux holds the dram.CmdKind.
	KindCommand Kind = iota
	// KindFill is a cache line installed into L1 or L2 (CompCache).
	// Aux holds the level (1 or 2).
	KindFill
	// KindWriteback is a dirty line written back toward memory (CompCache).
	// Aux holds the level it was evicted from.
	KindWriteback
	// KindOverlapFlush is a §4.1 overlapping-line flush (CompCoherence).
	KindOverlapFlush
	// KindOverlapInval is a §4.1 overlapping-line invalidate (CompCoherence).
	KindOverlapInval
	// KindCrossProbe is a cross-core L1 probe (CompCoherence).
	KindCrossProbe
	// KindBurstPatterned is a coalesced indexed burst served by an
	// in-DRAM pattern gather (CompCoalescer). Aux holds the line count.
	KindBurstPatterned
	// KindBurstFallback is a coalesced indexed burst served line by line
	// (CompCoalescer). Aux holds the line count.
	KindBurstFallback
	// KindMSHRAlloc is an MSHR allocation (CompMSHR). Aux holds the
	// occupancy after allocation.
	KindMSHRAlloc
	// KindMSHRCoalesce is a miss merged into an existing MSHR (CompMSHR).
	KindMSHRCoalesce
	// KindMSHRFree is an MSHR release on fill (CompMSHR). Aux holds the
	// number of waiters woken.
	KindMSHRFree
	// KindLoad and KindStore are scalar memory ops issued by a core
	// (CompCore). KindGatherV / KindScatterV are the indexed vector ops;
	// Aux holds the element count.
	KindLoad
	KindStore
	KindGatherV
	KindScatterV
	numKinds
)

var kindNames = [numKinds]string{
	"cmd", "fill", "writeback", "overlap_flush", "overlap_inval",
	"cross_probe", "burst_patterned", "burst_fallback",
	"mshr_alloc", "mshr_coalesce", "mshr_free",
	"load", "store", "gatherv", "scatterv",
}

// String returns the kind's dump name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one recorded occurrence. It is pointer-free and fixed-size so
// tails are a single allocation and recording is a struct store. Fields
// that do not apply to a kind hold -1 (location fields) or 0.
type Event struct {
	At      sim.Cycle
	Addr    uint64
	Aux     uint64
	Row     int32
	Core    int16
	Channel int16
	Rank    int16
	Bank    int16
	Pattern gsdram.Pattern
	Kind    Kind
}

// Phase is one core stall interval [From, To): the core issued a memory
// operation at From that missed all the way to DRAM and resumed at To.
type Phase struct {
	Core     int
	From, To sim.Cycle
}

// stream is one bounded event stream: it keeps the first headCap
// records, the last len(tail) records, and a count of every record
// seen. Either part may have no capacity.
type stream[T any] struct {
	head    []T
	headCap int
	tail    []T
	next    int // tail slot the next record overwrites
	seen    uint64
}

func newStream[T any](headCap, tailLen int) stream[T] {
	return stream[T]{headCap: headCap, tail: make([]T, tailLen)}
}

func (s *stream[T]) record(v T) {
	s.seen++
	if len(s.head) < s.headCap {
		s.head = append(s.head, v)
	}
	if len(s.tail) == 0 {
		return
	}
	s.tail[s.next] = v
	s.next++
	if s.next == len(s.tail) {
		s.next = 0
	}
}

// last returns the retained tail records oldest-first.
func (s *stream[T]) last() []T {
	if s.seen >= uint64(len(s.tail)) {
		out := make([]T, 0, len(s.tail))
		out = append(out, s.tail[s.next:]...)
		return append(out, s.tail[:s.next]...)
	}
	return append([]T(nil), s.tail[:s.next]...)
}

// Recorder is one rig's event log: a tail of equal depth per component,
// plus the heads of the DDR command, stall phase and request lifecycle
// streams. All methods are safe on a nil receiver (and record nothing),
// so an un-armed rig pays one nil check per potential event. A Recorder
// is not safe for concurrent use; like the rig's metrics registry, it
// belongs to exactly one event queue.
type Recorder struct {
	comps    [NumComponents]stream[Event]
	phases   stream[Phase]
	requests stream[latency.ReqTrace]
}

// DefaultDepth is the per-component tail depth used when a dump is
// requested without an explicit depth.
const DefaultDepth = 256

// New returns a log keeping the first commands DDR commands, the first
// phases stall phases, the first requests request lifecycles, and the
// last depth events of every component. A size <= 0 keeps nothing of
// that part; seen counts are kept regardless.
func New(commands, phases, requests, depth int) *Recorder {
	r := &Recorder{
		phases:   newStream[Phase](phases, 0),
		requests: newStream[latency.ReqTrace](requests, 0),
	}
	for c := range r.comps {
		r.comps[c] = newStream[Event](0, max(depth, 0))
	}
	r.comps[CompDDR].headCap = commands
	return r
}

// Depth returns the per-component tail depth (0 on a nil recorder).
func (r *Recorder) Depth() int {
	if r == nil {
		return 0
	}
	return len(r.comps[CompDDR].tail)
}

// Seen returns the total number of events observed by a component,
// including ones the log has since dropped.
func (r *Recorder) Seen(c Component) uint64 {
	if r == nil {
		return 0
	}
	return r.comps[c].seen
}

// Snapshot returns the events in one component's tail, oldest first.
func (r *Recorder) Snapshot(c Component) []Event {
	if r == nil {
		return nil
	}
	return r.comps[c].last()
}

// Commands returns the head of the DDR command stream in issue order;
// Seen(CompDDR) counts every command.
func (r *Recorder) Commands() []Event {
	if r == nil {
		return nil
	}
	return r.comps[CompDDR].head
}

// Phases returns the head of the stall phase stream in recording order.
func (r *Recorder) Phases() []Phase {
	if r == nil {
		return nil
	}
	return r.phases.head
}

// PhasesSeen returns the number of stall phases observed, including any
// beyond the head.
func (r *Recorder) PhasesSeen() uint64 {
	if r == nil {
		return 0
	}
	return r.phases.seen
}

// Requests returns the head of the request lifecycle stream in
// completion order.
func (r *Recorder) Requests() []latency.ReqTrace {
	if r == nil {
		return nil
	}
	return r.requests.head
}

// Command records a DDR command (ACT/PRE/RD/WR/REF) leaving the
// controller. Its method value is the controller's observer.
func (r *Recorder) Command(ev memctrl.CommandEvent) {
	if r == nil {
		return
	}
	r.comps[CompDDR].record(Event{
		At: ev.At, Kind: KindCommand, Core: -1,
		Channel: int16(ev.Channel), Rank: int16(ev.Rank), Bank: int16(ev.Bank), Row: int32(ev.Row),
		Pattern: ev.Pattern, Aux: uint64(ev.Kind),
	})
}

// CacheLine records a cache line transition: KindFill or KindWriteback,
// with level 1 or 2 and the line's base address.
func (r *Recorder) CacheLine(at sim.Cycle, kind Kind, core, level int, addr uint64, patt gsdram.Pattern) {
	if r == nil {
		return
	}
	r.comps[CompCache].record(Event{
		At: at, Kind: kind, Core: int16(core),
		Channel: -1, Rank: -1, Bank: -1, Row: -1,
		Pattern: patt, Addr: addr, Aux: uint64(level),
	})
}

// Coherence records a §4.1 action: KindOverlapFlush, KindOverlapInval, or
// KindCrossProbe on the line at addr.
func (r *Recorder) Coherence(at sim.Cycle, kind Kind, core int, addr uint64, patt gsdram.Pattern) {
	if r == nil {
		return
	}
	r.comps[CompCoherence].record(Event{
		At: at, Kind: kind, Core: int16(core),
		Channel: -1, Rank: -1, Bank: -1, Row: -1,
		Pattern: patt, Addr: addr,
	})
}

// Burst records one coalesced indexed burst decision: patterned in-DRAM
// gather or per-line fallback, with the burst's line count.
func (r *Recorder) Burst(at sim.Cycle, core int, patterned bool, addr uint64, patt gsdram.Pattern, lines int) {
	if r == nil {
		return
	}
	kind := KindBurstFallback
	if patterned {
		kind = KindBurstPatterned
	}
	r.comps[CompCoalescer].record(Event{
		At: at, Kind: kind, Core: int16(core),
		Channel: -1, Rank: -1, Bank: -1, Row: -1,
		Pattern: patt, Addr: addr, Aux: uint64(lines),
	})
}

// MSHR records MSHR traffic: KindMSHRAlloc (aux = occupancy after),
// KindMSHRCoalesce, or KindMSHRFree (aux = waiters woken) for the miss
// on addr.
func (r *Recorder) MSHR(at sim.Cycle, kind Kind, core int, addr uint64, patt gsdram.Pattern, aux int) {
	if r == nil {
		return
	}
	r.comps[CompMSHR].record(Event{
		At: at, Kind: kind, Core: int16(core),
		Channel: -1, Rank: -1, Bank: -1, Row: -1,
		Pattern: patt, Addr: addr, Aux: uint64(aux),
	})
}

// CoreOp records a memory op issuing from a core: KindLoad, KindStore,
// KindGatherV, or KindScatterV (aux = element count for the vector ops).
func (r *Recorder) CoreOp(at sim.Cycle, kind Kind, core int, addr uint64, patt gsdram.Pattern, aux int) {
	if r == nil {
		return
	}
	r.comps[CompCore].record(Event{
		At: at, Kind: kind, Core: int16(core),
		Channel: -1, Rank: -1, Bank: -1, Row: -1,
		Pattern: patt, Addr: addr, Aux: uint64(aux),
	})
}

// Phase records a core stall interval [from, to) on a DRAM-bound access.
func (r *Recorder) Phase(core int, from, to sim.Cycle) {
	if r == nil {
		return
	}
	r.phases.record(Phase{Core: core, From: from, To: to})
}

// Request records one waiter's completed DRAM-bound request: start is
// the waiter's access time, unstall the cycle its continuation runs, rl
// the request's stamped timestamps.
func (r *Recorder) Request(core int, start, unstall sim.Cycle, coalesced, blocking bool, pattern int, rl *latency.ReqLat) {
	if r == nil {
		return
	}
	r.requests.record(latency.ReqTrace{
		Core: core, Start: start, Unstall: unstall,
		Enqueue: rl.Enqueue, FirstSched: rl.FirstSched, FirstCmd: rl.FirstCmd,
		CAS: rl.CAS, Done: rl.Done,
		Pattern: pattern, Coalesced: coalesced, Forwarded: rl.Forwarded, Blocking: blocking,
		Channel: rl.Channel, Rank: rl.Rank, Bank: rl.Bank,
	})
}

// LabeledRecorder pairs a recorder with the rig label it served, for
// multi-rig dumps.
type LabeledRecorder struct {
	Label string
	Rec   *Recorder
}

// dumpMeta is the first NDJSON line: what the dump holds.
type dumpMeta struct {
	Flight     string               `json:"flight"`
	Depth      int                  `json:"depth"`
	Labels     []string             `json:"labels"`
	Components map[string]dumpCount `json:"components"`
}

type dumpCount struct {
	Seen uint64 `json:"seen"`
	Kept int    `json:"kept"`
}

// dumpEvent is one NDJSON event line. Location fields are omitted when
// the event does not carry them (-1 sentinels in Event).
type dumpEvent struct {
	Label     string `json:"label,omitempty"`
	Component string `json:"component"`
	At        uint64 `json:"at"`
	Kind      string `json:"kind"`
	Cmd       string `json:"cmd,omitempty"`
	Core      *int   `json:"core,omitempty"`
	Channel   *int   `json:"channel,omitempty"`
	Rank      *int   `json:"rank,omitempty"`
	Bank      *int   `json:"bank,omitempty"`
	Row       *int   `json:"row,omitempty"`
	Pattern   string `json:"pattern"`
	Addr      string `json:"addr,omitempty"`
	Aux       uint64 `json:"aux,omitempty"`
	Mark      bool   `json:"mark,omitempty"`
}

func optInt(v int) *int {
	if v < 0 {
		return nil
	}
	n := v
	return &n
}

// WriteNDJSON dumps the recorders' component tails as newline-delimited
// JSON: one meta line, then every retained event oldest-first, grouped
// by label and component. mark, when non-nil, flags events of interest
// (e.g. the diverging access in a stress reproduction) with "mark":true.
// Recorders that saw nothing still appear in the meta line, so an empty
// component is distinguishable from a missing one.
func WriteNDJSON(w io.Writer, recs []LabeledRecorder, mark func(Event) bool) error {
	enc := json.NewEncoder(w)
	meta := dumpMeta{Flight: "gsdram-flight/1", Components: map[string]dumpCount{}}
	sorted := append([]LabeledRecorder(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Label < sorted[j].Label })
	for _, lr := range sorted {
		meta.Labels = append(meta.Labels, lr.Label)
		if d := lr.Rec.Depth(); d > meta.Depth {
			meta.Depth = d
		}
		for c := Component(0); c < NumComponents; c++ {
			key := c.String()
			if len(sorted) > 1 {
				key = lr.Label + "/" + key
			}
			meta.Components[key] = dumpCount{Seen: lr.Rec.Seen(c), Kept: len(lr.Rec.Snapshot(c))}
		}
	}
	if err := enc.Encode(meta); err != nil {
		return err
	}
	for _, lr := range sorted {
		for c := Component(0); c < NumComponents; c++ {
			for _, e := range lr.Rec.Snapshot(c) {
				de := dumpEvent{
					Label:     lr.Label,
					Component: c.String(),
					At:        uint64(e.At),
					Kind:      e.Kind.String(),
					Core:      optInt(int(e.Core)),
					Channel:   optInt(int(e.Channel)),
					Rank:      optInt(int(e.Rank)),
					Bank:      optInt(int(e.Bank)),
					Row:       optInt(int(e.Row)),
					Pattern:   e.Pattern.String(),
					Aux:       e.Aux,
				}
				if e.Kind == KindCommand {
					de.Cmd = dram.CmdKind(e.Aux).String()
					de.Aux = 0
				}
				if e.Addr != 0 || e.Kind != KindCommand {
					de.Addr = fmt.Sprintf("0x%x", e.Addr)
				}
				if mark != nil && mark(e) {
					de.Mark = true
				}
				if err := enc.Encode(de); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
