// Package cpu models the in-order x86 cores of the paper's evaluated
// system (Table 1): one instruction per cycle, blocking on memory. A core
// executes an abstract instruction stream of compute blocks and memory
// operations; pattload/pattstore are loads/stores that carry a non-zero
// pattern ID (paper §4.2).
package cpu

import (
	"fmt"

	"gsdram/internal/addrmap"
	"gsdram/internal/flight"
	"gsdram/internal/gsdram"
	"gsdram/internal/memsys"
	"gsdram/internal/metrics"
	"gsdram/internal/sim"
)

// OpKind classifies instruction-stream entries.
type OpKind int

const (
	// OpCompute is a block of non-memory instructions retiring at 1 IPC.
	OpCompute OpKind = iota
	// OpLoad is a (patt)load: blocks the core until the data returns.
	OpLoad
	// OpStore is a (patt)store: write-allocate; blocking by default,
	// asynchronous behind a store buffer when one is configured.
	OpStore
	// OpGatherV is an indexed gather: reads the words at an explicit
	// address vector, blocking until the last coalesced burst returns.
	OpGatherV
	// OpScatterV is an indexed scatter: the store counterpart of
	// OpGatherV. Its bursts are posted; the core pays only the dispatch
	// latency.
	OpScatterV
)

// Op is one instruction-stream entry. Compute blocks carry their length;
// memory ops carry an address, a pattern ID, and the page metadata the
// paper keeps in the TLB (shuffle flag, alternate pattern).
type Op struct {
	Kind       OpKind
	Cycles     sim.Cycle // OpCompute: block length in cycles (= instructions)
	Addr       addrmap.Addr
	Pattern    gsdram.Pattern
	Shuffled   bool
	AltPattern gsdram.Pattern
	PC         uint64
	// Addrs is the element address vector of OpGatherV/OpScatterV. The
	// core hands it to the memory system at issue time; it must stay
	// unmodified until the op completes.
	Addrs []addrmap.Addr
}

// Compute returns a compute block of n instructions.
func Compute(n int) Op { return Op{Kind: OpCompute, Cycles: sim.Cycle(n)} }

// Load returns a plain load.
func Load(addr addrmap.Addr, pc uint64) Op {
	return Op{Kind: OpLoad, Addr: addr, PC: pc}
}

// PattLoad returns a pattload reg, addr, patt (paper §4.2) over shuffled
// data with the given page-alternate pattern.
func PattLoad(addr addrmap.Addr, patt gsdram.Pattern, pc uint64) Op {
	return Op{Kind: OpLoad, Addr: addr, Pattern: patt, Shuffled: true, AltPattern: patt, PC: pc}
}

// Store returns a plain store.
func Store(addr addrmap.Addr, pc uint64) Op {
	return Op{Kind: OpStore, Addr: addr, PC: pc}
}

// PattStore returns a pattstore (paper §4.2).
func PattStore(addr addrmap.Addr, patt gsdram.Pattern, pc uint64) Op {
	return Op{Kind: OpStore, Addr: addr, Pattern: patt, Shuffled: true, AltPattern: patt, PC: pc}
}

// GatherV returns an indexed gather over the given element addresses.
// shuffled/alt carry the §4.1 page contract of the targeted region; alt 0
// (or shuffled false) disables patterned coalescing, leaving the
// per-column fallback.
func GatherV(addrs []addrmap.Addr, shuffled bool, alt gsdram.Pattern, pc uint64) Op {
	return Op{Kind: OpGatherV, Addrs: addrs, Shuffled: shuffled, AltPattern: alt, PC: pc}
}

// ScatterV returns an indexed scatter over the given element addresses.
func ScatterV(addrs []addrmap.Addr, shuffled bool, alt gsdram.Pattern, pc uint64) Op {
	return Op{Kind: OpScatterV, Addrs: addrs, Shuffled: shuffled, AltPattern: alt, PC: pc}
}

// Stream supplies a core's instruction stream lazily, so workloads of
// millions of operations never materialise in memory.
type Stream interface {
	// Next returns the next operation, or ok=false at end of program.
	Next() (Op, bool)
}

// FuncStream adapts a function to the Stream interface.
type FuncStream func() (Op, bool)

// Next implements Stream.
func (f FuncStream) Next() (Op, bool) { return f() }

// OpQueue is the FIFO a lazy stream generator fills one group of ops at
// a time (a tuple, a row, a transaction) and drains in order. It rewinds
// when drained, so every group reuses one backing array and a stream
// allocates nothing for its queue in steady state. A queued op's Addrs
// vector is not copied: it keeps its own storage, per the Op contract.
type OpQueue struct {
	ops  []Op
	head int
}

// Push appends ops to the queue.
func (q *OpQueue) Push(ops ...Op) { q.ops = append(q.ops, ops...) }

// Empty reports whether every pushed op has been popped.
func (q *OpQueue) Empty() bool { return q.head == len(q.ops) }

// Pop returns the oldest queued op, or ok=false if the queue is empty.
func (q *OpQueue) Pop() (Op, bool) {
	if q.Empty() {
		return Op{}, false
	}
	op := q.ops[q.head]
	q.head++
	if q.Empty() {
		q.ops, q.head = q.ops[:0], 0
	}
	return op, true
}

// SliceStream returns a Stream over a fixed op sequence.
func SliceStream(ops []Op) Stream {
	i := 0
	return FuncStream(func() (Op, bool) {
		if i >= len(ops) {
			return Op{}, false
		}
		op := ops[i]
		i++
		return op, true
	})
}

// Stats describes a core's execution. It is the compatibility snapshot
// returned by Core.Stats; the counter fields live in the coreCounters
// struct below so they can register into a metrics.Registry.
type Stats struct {
	Instructions uint64
	Loads        uint64
	Stores       uint64
	// MemStallCycles is time the core spent blocked on memory beyond the
	// 1-cycle issue slot of each memory op.
	MemStallCycles sim.Cycle
	StartCycle     sim.Cycle
	FinishCycle    sim.Cycle
	Finished       bool
}

// coreCounters is the live counter storage (see internal/metrics).
type coreCounters struct {
	Instructions   metrics.Counter
	Loads          metrics.Counter
	Stores         metrics.Counter
	MemStallCycles metrics.Counter
}

// Runtime returns the core's total execution time.
func (s Stats) Runtime() sim.Cycle { return s.FinishCycle - s.StartCycle }

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	rt := s.Runtime()
	if rt == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(rt)
}

// Core is one in-order core.
type Core struct {
	id      int
	q       *sim.EventQueue
	mem     *memsys.System
	stream  Stream
	stats   Stats
	ctr     coreCounters
	stopped bool
	onDone  func(now sim.Cycle)

	// noInline disables the event-horizon fast path: every op re-enters
	// the event queue, reproducing the pure event-driven execution. The
	// two modes are bit-identical (see the equivalence tests); the flag
	// exists as an escape hatch and as the reference for that invariant.
	noInline bool

	// resume is the persistent continuation for blocking memory ops: it
	// accounts the stall against pendIssue and re-enters step. One closure
	// serves every op (allocated once in the constructor) because a
	// blocking core has at most one outstanding access. stepFn is the
	// method value of step, likewise bound once so scheduling it never
	// allocates.
	resume    func(now sim.Cycle)
	stepFn    func(now sim.Cycle)
	pendIssue sim.Cycle

	// pendMiss marks the outstanding access as a DRAM-bound miss, so the
	// resume path can record the stall interval as a phase.
	pendMiss bool

	// log is the memory system's event log, nil when it has none. It
	// receives the [from, to) interval of every DRAM-bound stall: miss
	// fills and store-buffer full waits. The interval is the same whether
	// the core runs inline or purely event-driven: cache-hit latencies
	// are accounted as stall cycles but never recorded as phases. ops is
	// the same log when it keeps component tails and nil otherwise; every
	// issued memory op goes there, so the L1-hit path pays one nil check
	// when ops are not recorded.
	log *flight.Recorder
	ops *flight.Recorder

	// Store buffer: when enabled, stores retire into the buffer and drain
	// asynchronously; the core only stalls when the buffer is full.
	sbCap     int
	sbPending int
	sbWaiting bool
}

// New builds a core bound to a memory system and event queue. Stores
// block the pipeline (no store buffer); see NewWithStoreBuffer.
func New(id int, q *sim.EventQueue, mem *memsys.System, stream Stream, onDone func(now sim.Cycle)) *Core {
	return NewWithStoreBuffer(id, q, mem, stream, onDone, 0)
}

// NewWithStoreBuffer builds a core with a store buffer of the given
// capacity: stores retire in one cycle and drain to the memory system in
// the background; the core stalls only when `capacity` stores are already
// outstanding. Capacity 0 disables the buffer (blocking stores).
func NewWithStoreBuffer(id int, q *sim.EventQueue, mem *memsys.System, stream Stream, onDone func(now sim.Cycle), capacity int) *Core {
	if stream == nil {
		panic("cpu: nil stream")
	}
	c := &Core{id: id, q: q, mem: mem, stream: stream, onDone: onDone, sbCap: capacity, log: mem.Log()}
	if c.log.Depth() > 0 {
		c.ops = c.log
	}
	c.stepFn = c.step
	c.resume = func(now sim.Cycle) {
		if now < c.pendIssue {
			now = c.pendIssue
		}
		if c.pendMiss {
			c.pendMiss = false
			if c.log != nil && now > c.pendIssue {
				c.log.Phase(c.id, c.pendIssue, now)
			}
		}
		c.ctr.MemStallCycles += metrics.Counter(now - c.pendIssue)
		// Schedule rather than call: completions of different cores at the
		// same cycle interleave their next quanta through the queue, exactly
		// as the per-op closures of the pure event-driven model did.
		c.q.Schedule(now, c.stepFn)
	}
	return c
}

// SetNoInline disables (true) or re-enables (false) the event-horizon
// fast path. Must be called before Start.
func (c *Core) SetNoInline(v bool) { c.noInline = v }

// Stats returns a snapshot of the core's counters.
func (c *Core) Stats() Stats {
	s := c.stats
	s.Instructions = c.ctr.Instructions.Value()
	s.Loads = c.ctr.Loads.Value()
	s.Stores = c.ctr.Stores.Value()
	s.MemStallCycles = sim.Cycle(c.ctr.MemStallCycles.Value())
	return s
}

// RegisterMetrics registers the core's counters under prefix (e.g.
// "core.0"). No-op on a nil registry.
func (c *Core) RegisterMetrics(r *metrics.Registry, prefix string) {
	r.RegisterCounter(prefix+".instructions", &c.ctr.Instructions)
	r.RegisterCounter(prefix+".loads", &c.ctr.Loads)
	r.RegisterCounter(prefix+".stores", &c.ctr.Stores)
	r.RegisterCounter(prefix+".mem_stall_cycles", &c.ctr.MemStallCycles)
}

// Stop makes the core halt at the next instruction boundary — used by the
// HTAP harness to end the transaction thread when analytics completes.
func (c *Core) Stop() { c.stopped = true }

// Start schedules the core's first instruction at time `at`.
func (c *Core) Start(at sim.Cycle) {
	c.stats.StartCycle = at
	c.q.Schedule(at, c.stepFn)
}

// step executes operations until the core blocks on a cache miss, fills
// its store buffer, finishes — or reaches the event horizon.
//
// The fast path: compute blocks and cache hits resolve with no other
// actor involved, so as long as the core's local time t stays strictly
// before the earliest pending event (PeekWhen), it keeps executing
// inline — no Schedule/dispatch per op — advancing the queue's clock
// with Advance so inline side effects (writebacks, controller enqueues)
// observe the same Now they would under pure event-driven execution.
// The horizon is re-checked after every op because an op can itself
// schedule events (controller wake-ups, store-buffer drains). Crossing
// the horizon re-enters the queue exactly as the event-driven model
// would have: one hop (step) for compute blocks and store-buffer issue
// slots, two hops (the completion callback, then step) for memory-op
// continuations — preserving tie-break order for same-cycle events.
func (c *Core) step(now sim.Cycle) {
	t := now
	for {
		if t != now {
			// Inline continuation: legal only strictly before the event
			// horizon. The first op of a quantum always executes — it is
			// this dispatch.
			if h, ok := c.q.PeekWhen(); ok && t >= h {
				c.q.Schedule(t, c.stepFn)
				return
			}
			c.q.Advance(t)
		}
		if c.stopped {
			c.finish(t)
			return
		}
		op, ok := c.stream.Next()
		if !ok {
			c.finish(t)
			return
		}
		switch op.Kind {
		case OpCompute:
			if op.Cycles == 0 {
				continue
			}
			c.ctr.Instructions += metrics.Counter(op.Cycles)
			if c.noInline {
				// Re-enter after the block retires; consecutive compute
				// blocks chain through the event queue without busy loops.
				c.q.Schedule(t+op.Cycles, c.stepFn)
				return
			}
			t += op.Cycles
		case OpLoad, OpStore:
			c.ctr.Instructions++
			isStore := op.Kind == OpStore
			if isStore {
				c.ctr.Stores++
			} else {
				c.ctr.Loads++
			}
			if c.ops != nil {
				k := flight.KindLoad
				if isStore {
					k = flight.KindStore
				}
				c.ops.CoreOp(t, k, c.id, uint64(op.Addr), op.Pattern, 0)
			}
			issue := t + 1
			acc := memsys.Access{
				Core:       c.id,
				Addr:       op.Addr,
				Pattern:    op.Pattern,
				Write:      isStore,
				PC:         op.PC,
				Shuffled:   op.Shuffled,
				AltPattern: op.AltPattern,
			}
			if isStore && c.sbCap > 0 {
				// Buffered store: retire in one cycle unless the buffer
				// is full, in which case stall until a slot frees.
				c.sbPending++
				acc.NonBlocking = true
				drain := func(dt sim.Cycle) {
					c.sbPending--
					if c.sbWaiting {
						c.sbWaiting = false
						c.ctr.MemStallCycles += metrics.Counter(dt - issue)
						c.mem.ChargeStoreBufferStall(c.id, dt-issue)
						if c.log != nil && dt > issue {
							c.log.Phase(c.id, issue, dt)
						}
						c.q.Schedule(dt, c.stepFn)
					}
				}
				if done, hit := c.mem.Access(t, &acc, drain); hit {
					c.q.Schedule(done, drain)
				}
				if c.sbPending > c.sbCap {
					c.sbWaiting = true
					return
				}
				if c.noInline {
					c.q.Schedule(issue, c.stepFn)
					return
				}
				t = issue
				continue
			}
			c.pendIssue = issue
			done, hit := c.mem.Access(t, &acc, c.resume)
			if !hit {
				// Miss: c.resume fires (as an event) when the fill lands.
				c.pendMiss = true
				return
			}
			tn := done
			if tn < issue {
				tn = issue
			}
			if c.noInline {
				c.q.Schedule(done, c.resume)
				return
			}
			if h, ok := c.q.PeekWhen(); ok && tn >= h {
				// The continuation would land on or past the horizon:
				// take the same two-hop route the event-driven model
				// takes (completion callback at `done`, which schedules
				// step), so same-cycle tie-breaks are identical.
				c.q.Schedule(done, c.resume)
				return
			}
			c.ctr.MemStallCycles += metrics.Counter(tn - issue)
			t = tn
		case OpGatherV, OpScatterV:
			// Indexed ops always block the pipeline (scatters only for
			// their dispatch slot — AccessV posts the bursts), so they
			// take the plain blocking continuation, never the store
			// buffer.
			c.ctr.Instructions++
			isStore := op.Kind == OpScatterV
			if isStore {
				c.ctr.Stores++
			} else {
				c.ctr.Loads++
			}
			if c.ops != nil {
				k := flight.KindGatherV
				if isStore {
					k = flight.KindScatterV
				}
				var first uint64
				if len(op.Addrs) > 0 {
					first = uint64(op.Addrs[0])
				}
				c.ops.CoreOp(t, k, c.id, first, op.AltPattern, len(op.Addrs))
			}
			issue := t + 1
			va := memsys.VAccess{
				Core:       c.id,
				Addrs:      op.Addrs,
				Write:      isStore,
				PC:         op.PC,
				Shuffled:   op.Shuffled,
				AltPattern: op.AltPattern,
			}
			c.pendIssue = issue
			done, hit := c.mem.AccessV(t, va, c.resume)
			if !hit {
				c.pendMiss = true
				return
			}
			tn := done
			if tn < issue {
				tn = issue
			}
			if c.noInline {
				c.q.Schedule(done, c.resume)
				return
			}
			if h, ok := c.q.PeekWhen(); ok && tn >= h {
				c.q.Schedule(done, c.resume)
				return
			}
			c.ctr.MemStallCycles += metrics.Counter(tn - issue)
			t = tn
		default:
			panic(fmt.Sprintf("cpu: unknown op kind %d", op.Kind))
		}
	}
}

func (c *Core) finish(now sim.Cycle) {
	if c.stats.Finished {
		return
	}
	c.stats.Finished = true
	c.stats.FinishCycle = now
	if c.onDone != nil {
		c.onDone(now)
	}
}
