// Package memsys assembles the simulated memory hierarchy: per-core L1
// caches, a shared L2, a PC-based stride prefetcher, and the FR-FCFS
// DDR3 memory controller, together with the GS-DRAM coherence rules of
// paper §4.1:
//
//   - cache tags are extended with the pattern ID (handled by
//     internal/cache), so gathered lines coexist with default lines;
//   - before a patterned line is fetched from DRAM, dirty lines of the
//     other pattern that overlap it are written back;
//   - a store to a line additionally invalidates the (at most c)
//     overlapping lines of the other pattern, in every cache.
//
// The model is timing-directed: it tracks presence, latency, bandwidth and
// energy-relevant activity. Functional data movement is performed
// synchronously by the workloads against a gsdram.Module.
package memsys

import (
	"fmt"
	"math/bits"

	"gsdram/internal/addrmap"
	"gsdram/internal/autopatt"
	"gsdram/internal/cache"
	"gsdram/internal/flight"
	"gsdram/internal/gsdram"
	"gsdram/internal/hashtab"
	"gsdram/internal/latency"
	"gsdram/internal/memctrl"
	"gsdram/internal/metrics"
	"gsdram/internal/prefetch"
	"gsdram/internal/sim"
)

// Config parameterises the memory system.
type Config struct {
	Cores int

	L1 cache.Config
	L2 cache.Config

	// Hit latencies in CPU cycles (added on top of lower levels on a
	// miss).
	L1Latency sim.Cycle
	L2Latency sim.Cycle

	Mem memctrl.Config
	GS  gsdram.Params

	EnablePrefetch bool
	Prefetch       prefetch.Config

	// ShuffleLatency is the extra controller latency for accesses to
	// shuffled data: 3 CPU cycles for GS-DRAM(8,3,3) (paper §3.6).
	ShuffleLatency sim.Cycle

	// AutoPattern enables transparent pattern promotion (the automatic
	// mechanism the paper describes as future work in §4): plain loads
	// with a confident power-of-2 word stride over a shuffled page are
	// redirected to the gathered line of the page's alternate pattern.
	AutoPattern bool
	AutoPatt    autopatt.Config

	// Gather selects where patterned cache lines are assembled; see
	// GatherMode. The default is GatherInDRAM (the paper's mechanism).
	Gather GatherMode

	// Metrics, when non-nil, receives every component's counters at
	// construction: the hierarchy's own counters, the per-cache counters,
	// the MSHR occupancy telemetry, and (threaded through Mem.Metrics)
	// the controller and DRAM rank counters. Nil disables registration.
	// A registry also enables the request-lifecycle latency recorder
	// (internal/latency): span histograms and core-stall attribution.
	Metrics *metrics.Registry

	// Log, when non-nil, is the rig's event log (internal/flight). The
	// system records cache line transitions, §4.1 coherence actions, MSHR
	// traffic, coalescer burst decisions and request lifecycles into it;
	// New points the controller's Mem.Observer at it for DDR commands,
	// replacing any observer set there; and every core built on the
	// system records its stall phases and memory ops into it. Nil
	// disables recording.
	Log *flight.Recorder
}

// GatherMode selects the gather implementation being modelled.
type GatherMode int

const (
	// GatherInDRAM is GS-DRAM: one column command returns the gathered
	// line; DRAM-side and channel-side traffic are both one line.
	GatherInDRAM GatherMode = iota
	// GatherAtController models the Impulse / DGMS class of related work
	// (paper §7): the memory controller assembles the gathered line from
	// c ordinary line reads. Channel-to-CPU traffic and cache behaviour
	// match GS-DRAM, but the DRAM side still transfers every donor line —
	// the bandwidth waste the paper's mechanism removes.
	GatherAtController
)

func (m GatherMode) String() string {
	switch m {
	case GatherInDRAM:
		return "GS-DRAM (in-DRAM gather)"
	case GatherAtController:
		return "controller gather (Impulse-like)"
	default:
		return "unknown"
	}
}

// DefaultConfig reproduces Table 1: 1-2 in-order 4 GHz cores, 32 KB 8-way
// private L1s, a 2 MB 8-way shared L2, and one DDR3-1600 channel behind an
// FR-FCFS open-row controller with GS-DRAM(8,3,3).
func DefaultConfig(cores int) Config {
	return Config{
		Cores:          cores,
		L1:             cache.L1Default(),
		L2:             cache.L2Default(),
		L1Latency:      3,
		L2Latency:      18,
		Mem:            memctrl.DefaultConfig(),
		GS:             gsdram.GS844,
		EnablePrefetch: false,
		Prefetch:       prefetch.DefaultConfig(),
		ShuffleLatency: 3,
		AutoPatt:       autopatt.DefaultConfig(),
	}
}

// Access describes one memory operation from a core.
type Access struct {
	Core    int
	Addr    addrmap.Addr
	Pattern gsdram.Pattern
	Write   bool
	PC      uint64
	// NonBlocking marks accesses the issuing core does not stall on (a
	// store retiring into a free store-buffer slot). They are observed in
	// the latency histograms but charge no core-stall cycles; the
	// store-buffer-full wait is charged separately via
	// ChargeStoreBufferStall. The zero value (blocking) is correct for
	// every demand load and unbuffered store.
	NonBlocking bool
	// Shuffled marks accesses to pattmalloc'd (shuffled) data; it enables
	// the shuffle latency and the cross-pattern coherence rules.
	Shuffled bool
	// AltPattern is the page's alternate pattern ID (paper §4.1): the only
	// non-zero pattern this data structure is accessed with. Zero means
	// the structure has no alternate pattern.
	AltPattern gsdram.Pattern
}

// Stats aggregates the memory system's counters. It is the
// compatibility snapshot returned by System.Stats; live storage is the
// counters struct below.
type Stats struct {
	Accesses       uint64
	Loads          uint64
	Stores         uint64
	L1Hits         uint64
	L1Misses       uint64
	L2Hits         uint64
	L2Misses       uint64
	DRAMReads      uint64 // demand fetches sent to the controller
	Writebacks     uint64
	OverlapFlushes uint64 // dirty other-pattern lines flushed before a fetch
	OverlapInvals  uint64 // other-pattern lines invalidated by stores
	CrossCoreProbe uint64 // dirty lines pulled from another core's L1
	PrefIssued     uint64
	PrefUseful     uint64 // demand hits on prefetched L2 lines

	// Indexed-access (gatherv/scatterv) counters; see AccessV.
	GathervOps       uint64 // indexed gathers executed
	ScattervOps      uint64 // indexed scatters executed
	GathervElems     uint64 // total elements across indexed ops
	GathervBursts    uint64 // DRAM bursts issued for indexed ops
	GathervPatterned uint64 // bursts served by an in-DRAM pattern gather
	GathervFallback  uint64 // default-pattern fallback bursts
}

// counters is the live counter storage (see internal/metrics).
type counters struct {
	Accesses       metrics.Counter
	Loads          metrics.Counter
	Stores         metrics.Counter
	L1Hits         metrics.Counter
	L1Misses       metrics.Counter
	L2Hits         metrics.Counter
	L2Misses       metrics.Counter
	DRAMReads      metrics.Counter
	Writebacks     metrics.Counter
	OverlapFlushes metrics.Counter
	OverlapInvals  metrics.Counter
	CrossCoreProbe metrics.Counter
	PrefIssued     metrics.Counter
	PrefUseful     metrics.Counter

	GathervOps       metrics.Counter
	ScattervOps      metrics.Counter
	GathervElems     metrics.Counter
	GathervBursts    metrics.Counter
	GathervPatterned metrics.Counter
	GathervFallback  metrics.Counter

	// MSHROccupancy is the distribution of outstanding-miss counts,
	// observed each time a new MSHR entry is allocated.
	MSHROccupancy metrics.Histogram
}

type waiter struct {
	core   int
	write  bool
	onDone func(now sim.Cycle)
	extra  sim.Cycle

	// Latency-attribution context: the waiter's access time, whether it
	// joined an entry whose fetch was already in flight, and whether its
	// core blocks on the fill (see Access.NonBlocking).
	start     sim.Cycle
	coalesced bool
	blocking  bool
}

type mshrEntry struct {
	waiters    []waiter
	prefetched bool // entry created by a prefetch
	core       int  // the core whose access allocated the entry

	// key/line/patt/acc parameterise the entry's two persistent closures
	// below, so the miss path schedules and enqueues without allocating.
	// They are overwritten each time the (pooled) entry is reused; acc
	// only by a demand miss.
	key  uint64 // lineKey(line, patt)
	line addrmap.Addr
	patt gsdram.Pattern
	acc  Access
	// lat is the entry's request-lifecycle timestamp record; the
	// controller stamps it through Request.Lat. It lives in the (pooled)
	// entry so it outlives the controller's Request, which is recycled at
	// CAS issue — before the fill completes. Reset at entry allocation.
	lat latency.ReqLat
	// onFetch completes the fill (the controller's OnComplete); fetchFn is
	// the scheduled L2-miss continuation that issues the DRAM fetch. Both
	// capture the entry itself and are built once per entry.
	onFetch func(now sim.Cycle)
	fetchFn func(now sim.Cycle)
}

// System is the assembled memory hierarchy.
type System struct {
	cfg  Config
	q    *sim.EventQueue
	l1   []*cache.Cache
	l2   *cache.Cache
	ctrl *memctrl.Controller
	pf   *prefetch.Prefetcher
	auto *autopatt.Detector

	// caches is the precomputed hierarchy walk order (L1s then L2) used by
	// the overlap flush/invalidate paths.
	caches []*cache.Cache

	// mshrs holds the outstanding misses by lineKey.
	mshrs hashtab.Table[*mshrEntry]
	// mshrFree recycles mshrEntry structs (and their waiter slices) so the
	// steady-state miss path does not allocate.
	mshrFree []*mshrEntry

	// coal plans indexed (gatherv/scatterv) vectors into per-bank/per-row
	// bursts; vopFree recycles the in-flight indexed-op trackers so the
	// coalesced hot path does not allocate (see vaccess.go).
	coal    *memctrl.Coalescer
	vopFree []*vop
	// keyShift converts a line address to the line number lineKey packs.
	keyShift uint
	// pfBuf is the reusable candidate buffer train passes to the
	// prefetcher, so a confident training does not allocate.
	pfBuf []prefetch.Candidate

	// overlapBuf is the reusable result buffer of overlapLines. The slice
	// it returns aliases this buffer and is only valid until the next
	// overlapLines call; all callers consume it before issuing another
	// access (the simulation is single-threaded per System).
	overlapBuf []addrmap.Addr

	// invMemo remembers the line of the most recent store-side overlap
	// invalidation whose other pattern was non-default. Transactions
	// store to several fields of one tuple — the same cache line — back
	// to back, and after the first drop no (overlap, pattern) line exists
	// until a line of that pattern is filled again, so repeating the
	// drop is a no-op. fillL1 and fillL2 clear invMemoOK, which gates the
	// memo, on every non-default-pattern fill.
	invMemo     addrmap.Addr
	invMemoPatt gsdram.Pattern
	invMemoOK   bool

	// warm is set while WarmAccess or WarmAccessV runs: the access takes
	// no simulated time and makes no traffic, so a miss completes in
	// place, prefetch candidates fill the L2 directly, and writebacks are
	// dropped (the data already lives in the machine).
	warm bool

	// lat is the request-lifecycle attribution recorder, created only
	// when the system is built with a metrics registry; nil otherwise
	// (one pointer check per hit, one per miss fill).
	lat *latency.Recorder

	ctr counters
}

// New builds the memory system on the given event queue.
func New(cfg Config, q *sim.EventQueue) (*System, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("memsys: Cores must be positive, got %d", cfg.Cores)
	}
	if err := cfg.GS.Validate(); err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, q: q}
	for i := 0; i < cfg.Cores; i++ {
		l1, err := cache.New(cfg.L1)
		if err != nil {
			return nil, err
		}
		s.l1 = append(s.l1, l1)
	}
	l2, err := cache.New(cfg.L2)
	if err != nil {
		return nil, err
	}
	s.l2 = l2
	s.keyShift = uint(bits.TrailingZeros(uint(min(cfg.L1.LineBytes, cfg.L2.LineBytes))))
	memCfg := cfg.Mem
	memCfg.Metrics = cfg.Metrics
	if cfg.Log != nil {
		memCfg.Observer = cfg.Log.Command
	}
	ctrl, err := memctrl.New(memCfg, q)
	if err != nil {
		return nil, err
	}
	s.ctrl = ctrl
	s.coal = memctrl.NewCoalescer(cfg.Mem.Spec, cfg.GS)
	s.pf = prefetch.New(cfg.Prefetch)
	s.auto = autopatt.New(cfg.AutoPatt)
	s.caches = append(append(s.caches, s.l1...), s.l2)
	s.registerMetrics(cfg.Metrics)
	if cfg.Metrics != nil {
		spec := cfg.Mem.Spec
		s.lat = latency.NewRecorder(cfg.Cores, spec.Channels, spec.Ranks, spec.Banks, cfg.Metrics)
	}
	return s, nil
}

// LatencyRecorder returns the request-lifecycle attribution recorder, or
// nil when the system was built without a metrics registry.
func (s *System) LatencyRecorder() *latency.Recorder { return s.lat }

// Log returns the rig's event log (Config.Log), nil when there is none.
func (s *System) Log() *flight.Recorder { return s.cfg.Log }

// ChargeStoreBufferStall attributes core-stall cycles spent waiting on a
// full store buffer (the only memory stall the core accounts that never
// surfaces as a blocking Access). No-op without a latency recorder.
func (s *System) ChargeStoreBufferStall(core int, cycles sim.Cycle) {
	if s.lat != nil {
		s.lat.ChargeStall(core, latency.StageStoreBuf, cycles)
	}
}

// lineKey packs (line, pattern) into the MSHR table's key the way
// internal/cache packs its tags: the line number above 16 pattern bits
// (gsdram.Params caps PatternBits at 16) and a set low bit, so no key is
// 0. The line number counts units of the smaller cache line, which every
// line address the system forms is aligned to. Like the cache's tag
// packing, it is exact below 2^47 line numbers; lineKey panics beyond,
// where cache.Fill and the controller panic too.
func (s *System) lineKey(line addrmap.Addr, p gsdram.Pattern) uint64 {
	n := uint64(line) >> s.keyShift
	if n >= 1<<47 {
		panic(fmt.Sprintf("memsys: line %#x exceeds the packed-key range", uint64(line)))
	}
	return n<<17 | uint64(p)<<1 | 1
}

// newMSHR returns a recycled (or fresh) entry with no waiters.
func (s *System) newMSHR() *mshrEntry {
	if n := len(s.mshrFree); n > 0 {
		e := s.mshrFree[n-1]
		s.mshrFree = s.mshrFree[:n-1]
		return e
	}
	e := &mshrEntry{}
	e.onFetch = func(t sim.Cycle) { s.finishFetch(t, e.key) }
	e.fetchFn = func(t sim.Cycle) { s.fetch(t, e) }
	return e
}

// recycleMSHR returns a completed entry to the free list.
func (s *System) recycleMSHR(e *mshrEntry) {
	for i := range e.waiters {
		e.waiters[i] = waiter{} // drop the onDone closures
	}
	e.waiters = e.waiters[:0]
	e.prefetched = false
	s.mshrFree = append(s.mshrFree, e)
}

// Stats returns a snapshot of the counters.
func (s *System) Stats() Stats {
	return Stats{
		Accesses:       s.ctr.Accesses.Value(),
		Loads:          s.ctr.Loads.Value(),
		Stores:         s.ctr.Stores.Value(),
		L1Hits:         s.ctr.L1Hits.Value(),
		L1Misses:       s.ctr.L1Misses.Value(),
		L2Hits:         s.ctr.L2Hits.Value(),
		L2Misses:       s.ctr.L2Misses.Value(),
		DRAMReads:      s.ctr.DRAMReads.Value(),
		Writebacks:     s.ctr.Writebacks.Value(),
		OverlapFlushes: s.ctr.OverlapFlushes.Value(),
		OverlapInvals:  s.ctr.OverlapInvals.Value(),
		CrossCoreProbe: s.ctr.CrossCoreProbe.Value(),
		PrefIssued:     s.ctr.PrefIssued.Value(),
		PrefUseful:     s.ctr.PrefUseful.Value(),

		GathervOps:       s.ctr.GathervOps.Value(),
		ScattervOps:      s.ctr.ScattervOps.Value(),
		GathervElems:     s.ctr.GathervElems.Value(),
		GathervBursts:    s.ctr.GathervBursts.Value(),
		GathervPatterned: s.ctr.GathervPatterned.Value(),
		GathervFallback:  s.ctr.GathervFallback.Value(),
	}
}

// registerMetrics exposes the hierarchy's telemetry. No-op on a nil
// registry.
func (s *System) registerMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterCounter("memsys.accesses", &s.ctr.Accesses)
	reg.RegisterCounter("memsys.loads", &s.ctr.Loads)
	reg.RegisterCounter("memsys.stores", &s.ctr.Stores)
	reg.RegisterCounter("memsys.l1_hits", &s.ctr.L1Hits)
	reg.RegisterCounter("memsys.l1_misses", &s.ctr.L1Misses)
	reg.RegisterCounter("memsys.l2_hits", &s.ctr.L2Hits)
	reg.RegisterCounter("memsys.l2_misses", &s.ctr.L2Misses)
	reg.RegisterCounter("memsys.dram_reads", &s.ctr.DRAMReads)
	reg.RegisterCounter("memsys.writebacks", &s.ctr.Writebacks)
	reg.RegisterCounter("memsys.overlap_flushes", &s.ctr.OverlapFlushes)
	reg.RegisterCounter("memsys.overlap_invals", &s.ctr.OverlapInvals)
	reg.RegisterCounter("memsys.cross_core_probes", &s.ctr.CrossCoreProbe)
	reg.RegisterCounter("memsys.prefetches_issued", &s.ctr.PrefIssued)
	reg.RegisterCounter("memsys.prefetches_useful", &s.ctr.PrefUseful)
	reg.RegisterCounter("memsys.gatherv_ops", &s.ctr.GathervOps)
	reg.RegisterCounter("memsys.scatterv_ops", &s.ctr.ScattervOps)
	reg.RegisterCounter("memsys.gatherv_elems", &s.ctr.GathervElems)
	reg.RegisterCounter("memsys.gatherv_bursts", &s.ctr.GathervBursts)
	reg.RegisterCounter("memsys.gatherv_patterned", &s.ctr.GathervPatterned)
	reg.RegisterCounter("memsys.gatherv_fallback", &s.ctr.GathervFallback)
	reg.RegisterHistogram("memsys.mshr_occupancy", &s.ctr.MSHROccupancy)
	reg.RegisterGaugeFunc("memsys.mshr_outstanding", func() int64 { return int64(s.mshrs.Len()) })
	for i, l1 := range s.l1 {
		l1.RegisterMetrics(reg, fmt.Sprintf("cache.l1.%d", i))
	}
	s.l2.RegisterMetrics(reg, "cache.l2")
}

// MemStats returns the memory controller's counters.
func (s *System) MemStats() memctrl.Stats { return s.ctrl.Stats() }

// CacheStats returns (per-core L1 stats, L2 stats).
func (s *System) CacheStats() ([]cache.Stats, cache.Stats) {
	l1 := make([]cache.Stats, len(s.l1))
	for i, c := range s.l1 {
		l1[i] = c.Stats()
	}
	return l1, s.l2.Stats()
}

// SnapshotCaches returns the resident lines of every cache — one sorted
// slice per core L1 plus the shared L2 — for differential verification
// against an architectural golden model (internal/refmodel). The
// snapshot is a deep copy; it does not perturb LRU or statistics.
func (s *System) SnapshotCaches() (l1 [][]cache.Line, l2 []cache.Line) {
	l1 = make([][]cache.Line, len(s.l1))
	for i, c := range s.l1 {
		l1[i] = c.Lines()
	}
	return l1, s.l2.Lines()
}

// PrefetchStats returns the prefetcher's counters.
func (s *System) PrefetchStats() prefetch.Stats { return s.pf.Stats() }

// AutoPattStats returns the transparent-promotion detector's counters.
func (s *System) AutoPattStats() autopatt.Stats { return s.auto.Stats() }

// lineOf truncates an address to its cache line.
func (s *System) lineOf(a addrmap.Addr) addrmap.Addr {
	return a &^ addrmap.Addr(s.cfg.L1.LineBytes-1)
}

// Access performs one memory operation. Cache hits resolve synchronously:
// Access returns hit=true and the completion time `done` WITHOUT invoking
// or scheduling onDone — the caller decides whether to continue inline
// (the event-horizon fast path) or schedule its continuation at `done`.
// On a miss it returns hit=false and onDone fires (as a scheduled event)
// when the fill completes.
//
// All state mutations — cache tag updates, overlap invalidations,
// prefetcher training, controller enqueues — happen at call time `now` in
// both cases, so a hit behaves identically whether the caller resumes
// inline or through the queue.
//
// Access and the helpers below share the caller's Access, which Access
// neither keeps nor modifies, instead of a copy: Go passes a struct this
// large on the stack, and a block copy of one just stored field by field
// stalls on store forwarding, which measured about 14% of the
// fast-forward's time and about 2% of the suite's. Only a promoted
// access (see below) is copied, into a redirected Access of its own.
func (s *System) Access(now sim.Cycle, a *Access, onDone func(now sim.Cycle)) (done sim.Cycle, hit bool) {
	if a.Core < 0 || a.Core >= len(s.l1) {
		panic(fmt.Sprintf("memsys: core %d out of range", a.Core))
	}
	s.ctr.Accesses++
	if a.Write {
		s.ctr.Stores++
	} else {
		s.ctr.Loads++
	}

	// Transparent pattern promotion (paper §4, future work): a confident
	// strided load over a shuffled page is served from the gathered line
	// of the page's alternate pattern instead of its own cache line.
	if s.cfg.AutoPattern && !a.Write && a.Pattern == gsdram.DefaultPattern &&
		a.Shuffled && a.AltPattern != gsdram.DefaultPattern {
		if ws, ok := s.auto.Observe(a.PC^uint64(a.Core)<<56, a.Addr); ok {
			if patt, err := s.cfg.GS.StridePattern(ws); err == nil && patt == a.AltPattern {
				promoted := *a
				promoted.Addr = s.gatherLine(a.Addr, patt)
				promoted.Pattern = patt
				a = &promoted
				s.auto.CountPromotion()
			}
		}
	}

	line := s.lineOf(a.Addr)

	// Stores to shuffled structures invalidate overlapping lines of the
	// other pattern everywhere (paper §4.1, read-exclusive piggyback).
	if a.Write && a.Shuffled {
		s.invalidateOverlaps(line, a)
	}

	t1 := now + s.cfg.L1Latency
	if s.l1[a.Core].Lookup(line, a.Pattern, a.Write) {
		s.ctr.L1Hits++
		if s.lat != nil && !a.NonBlocking && t1 > now+1 {
			// The core stalls max(done, issue)-issue cycles on a hit;
			// charge exactly that (issue = now+1, the op's issue slot).
			s.lat.ChargeStall(a.Core, latency.StageL1Hit, t1-(now+1))
		}
		return t1, true
	}
	s.ctr.L1Misses++

	// A dirty copy may live in another core's L1 (shared-table HTAP):
	// pull it into L2 first.
	if len(s.l1) > 1 {
		s.probeOtherL1s(now, a.Core, line, a.Pattern)
	}

	t2 := t1 + s.cfg.L2Latency
	if s.cfg.EnablePrefetch && !a.Write {
		s.train(now, a, line)
	}
	if s.l2.Lookup(line, a.Pattern, false) {
		s.ctr.L2Hits++
		if s.l2.Unmark(line, a.Pattern) {
			s.ctr.PrefUseful++
		}
		// Nothing since the L1 lookup touched this core's L1: the probe
		// and the prefetcher reach only other L1s, the L2 and the
		// controller, whose completions are events.
		s.fillL1(a.Core, line, a.Pattern, a.Write, true)
		if s.lat != nil && !a.NonBlocking && t2 > now+1 {
			s.lat.ChargeStall(a.Core, latency.StageL2Hit, t2-(now+1))
		}
		return t2, true
	}
	s.ctr.L2Misses++
	if s.warm {
		// The miss completes in place: the fetch's overlap flush, then
		// the fills. The flush only cleans lines, so neither level holds
		// the line yet and both fills skip the presence scan.
		if a.Shuffled {
			s.flushOverlaps(now, line, a)
		}
		s.fillL2(line, a.Pattern, false, true)
		s.fillL1(a.Core, line, a.Pattern, a.Write, true)
		return t2, true
	}

	extra := sim.Cycle(0)
	if a.Shuffled {
		extra = s.cfg.ShuffleLatency
	}
	w := waiter{
		core: a.Core, write: a.Write, onDone: onDone, extra: extra,
		start: now, blocking: !a.NonBlocking,
	}
	key := s.lineKey(line, a.Pattern)
	if e, ok := s.mshrs.Get(key); ok {
		w.coalesced = true
		e.waiters = append(e.waiters, w)
		s.cfg.Log.MSHR(now, flight.KindMSHRCoalesce, a.Core, uint64(line), a.Pattern, s.mshrs.Len())
		return 0, false
	}
	e := s.newMSHR()
	e.key, e.line, e.patt, e.acc, e.core = key, line, a.Pattern, *a, a.Core
	e.lat = latency.ReqLat{MSHRAlloc: now}
	e.waiters = append(e.waiters, w)
	s.mshrs.Put(key, e)
	s.ctr.MSHROccupancy.Observe(uint64(s.mshrs.Len()))
	s.cfg.Log.MSHR(now, flight.KindMSHRAlloc, a.Core, uint64(line), a.Pattern, s.mshrs.Len())
	// The fetch leaves for the controller after the L1 and L2 tag checks.
	s.q.Schedule(t2, e.fetchFn)
	return 0, false
}

// train feeds the prefetcher and issues its candidates into the L2. The
// training context includes the core ID: hardware prefetchers train
// per hardware thread, and two cores running the same code must not
// thrash each other's table entries.
func (s *System) train(now sim.Cycle, a *Access, line addrmap.Addr) {
	pc := a.PC ^ uint64(a.Core)<<56
	s.pfBuf = s.pf.Observe(s.pfBuf[:0], pc, line, a.Pattern)
	for _, cand := range s.pfBuf {
		cl := s.lineOf(cand.Addr)
		// A confident stream finds most candidates in the L2 already, so
		// the probe comes first. The capacity check precedes lineKey, so
		// every key formed is in its range; a probe beyond the capacity
		// can only skip the candidate, as the check would. None of the
		// checks has side effects.
		if present, _ := s.l2.Probe(cl, cand.Pattern); present {
			continue
		}
		if uint64(cl) >= s.cfg.Mem.Spec.Capacity() {
			continue
		}
		key := s.lineKey(cl, cand.Pattern)
		if _, pending := s.mshrs.Get(key); pending {
			continue
		}
		if s.warm {
			s.fillL2(cl, cand.Pattern, false, true)
			s.l2.Mark(cl, cand.Pattern)
			continue
		}
		e := s.newMSHR()
		e.prefetched = true
		e.key, e.line, e.patt, e.core = key, cl, cand.Pattern, a.Core
		e.lat = latency.ReqLat{MSHRAlloc: now}
		s.mshrs.Put(key, e)
		s.ctr.MSHROccupancy.Observe(uint64(s.mshrs.Len()))
		s.cfg.Log.MSHR(now, flight.KindMSHRAlloc, a.Core, uint64(cl), cand.Pattern, s.mshrs.Len())
		if !s.enqueueFetch(now, cl, cand.Pattern, true, e) {
			s.mshrs.Del(key)
			s.recycleMSHR(e)
			continue
		}
		s.ctr.PrefIssued++
	}
}

// enqueueFetch sends the DRAM-side requests for one cache-line fill,
// honouring the gather mode. It returns false if the controller dropped
// the request (prefetches on a full queue).
func (s *System) enqueueFetch(now sim.Cycle, line addrmap.Addr, patt gsdram.Pattern, isPrefetch bool, e *mshrEntry) bool {
	// Impulse-like mode: a patterned line is assembled by the controller
	// from the c donor lines it overlaps; the fill completes when the
	// last donor burst arrives. Once the controller commits to a gather
	// it fetches every donor, so donors are never dropped mid-gather.
	if s.cfg.Gather == GatherAtController && patt != gsdram.DefaultPattern {
		donors, _ := s.overlapLines(line, &Access{Pattern: patt})
		remaining := len(donors)
		key := e.key
		for _, da := range donors {
			req := s.ctrl.NewRequest()
			req.Addr = da
			if s.lat != nil {
				// All donors share the entry's record; the stamps reflect
				// whichever donor the controller touched last. The clamped
				// span chain keeps the decomposition conservative anyway.
				req.Lat = &e.lat
			}
			req.OnComplete = func(t sim.Cycle) {
				remaining--
				if remaining == 0 {
					s.finishFetch(t, key)
				}
			}
			s.ctrl.Enqueue(now, req)
		}
		return true
	}
	req := s.ctrl.NewRequest()
	req.Addr = line
	req.Pattern = patt
	req.IsPrefetch = isPrefetch
	req.OnComplete = e.onFetch
	if s.lat != nil {
		req.Lat = &e.lat
	}
	return s.ctrl.Enqueue(now, req)
}

// fetch issues a demand read to the controller, flushing dirty overlapping
// lines of the other pattern first (paper §4.1).
func (s *System) fetch(now sim.Cycle, e *mshrEntry) {
	if e.acc.Shuffled {
		s.flushOverlaps(now, e.line, &e.acc)
	}
	s.ctr.DRAMReads++
	s.enqueueFetch(now, e.line, e.acc.Pattern, false, e)
}

// finishFetch completes an outstanding miss: fill L2 (and the waiters'
// L1s), then wake every waiter.
func (s *System) finishFetch(now sim.Cycle, key uint64) {
	e, ok := s.mshrs.Del(key)
	if !ok {
		return
	}
	s.cfg.Log.MSHR(now, flight.KindMSHRFree, e.core, uint64(e.line), e.patt, len(e.waiters))
	s.fillL2(e.line, e.patt, false, false)
	if e.prefetched && len(e.waiters) == 0 {
		s.l2.Mark(e.line, e.patt)
	}
	for _, w := range e.waiters {
		s.fillL1(w.core, e.line, e.patt, w.write, false)
		cb := w.onDone
		s.q.Schedule(now+w.extra, cb)
		if s.lat != nil {
			// The waiter's continuation runs at now+extra: that is the
			// cycle the core unstalls.
			s.lat.ObserveMiss(w.core, w.start, now+w.extra, w.coalesced, w.blocking,
				int(e.patt), &e.lat)
			s.cfg.Log.Request(w.core, w.start, now+w.extra, w.coalesced, w.blocking,
				int(e.patt), &e.lat)
		}
	}
	s.recycleMSHR(e)
}

// fillL1 inserts a line into a core's L1, handling the eviction. missed
// reports that the caller saw the line miss in that L1 with nothing
// filling it since, so the fill skips the presence scan (cache.FillNew).
func (s *System) fillL1(core int, line addrmap.Addr, p gsdram.Pattern, dirty, missed bool) {
	if p != gsdram.DefaultPattern {
		s.invMemoOK = false
	}
	if s.cfg.Log != nil { // CacheLine does not inline; fills are hot
		s.cfg.Log.CacheLine(s.q.Now(), flight.KindFill, core, 1, uint64(line), p)
	}
	var ev cache.Line
	var has bool
	if missed {
		ev, has = s.l1[core].FillNew(line, p, dirty)
	} else {
		ev, has = s.l1[core].Fill(line, p, dirty)
	}
	if has && ev.Dirty {
		// Dirty L1 victim falls into the L2.
		s.fillL2(ev.Addr, ev.Pattern, true, false)
	}
}

// fillL2 inserts a line into the L2, writing back its dirty victim.
// missed is as for fillL1.
func (s *System) fillL2(line addrmap.Addr, p gsdram.Pattern, dirty, missed bool) {
	if p != gsdram.DefaultPattern {
		s.invMemoOK = false
	}
	if s.cfg.Log != nil {
		s.cfg.Log.CacheLine(s.q.Now(), flight.KindFill, -1, 2, uint64(line), p)
	}
	var ev cache.Line
	var has bool
	if missed {
		ev, has = s.l2.FillNew(line, p, dirty)
	} else {
		ev, has = s.l2.Fill(line, p, dirty)
	}
	if has && ev.Dirty {
		s.writeback(ev.Addr, ev.Pattern)
	}
}

// writeback posts a write to the controller; a warm access drops it.
func (s *System) writeback(line addrmap.Addr, p gsdram.Pattern) {
	if s.warm {
		return
	}
	s.ctr.Writebacks++
	s.cfg.Log.CacheLine(s.q.Now(), flight.KindWriteback, -1, 2, uint64(line), p)
	req := s.ctrl.NewRequest()
	req.Addr = line
	req.Pattern = p
	req.Write = true
	s.ctrl.Enqueue(s.q.Now(), req)
}

// probeOtherL1s pulls a dirty copy of (line, p) out of any other core's L1
// into the shared L2 (simple write-invalidate coherence between cores).
func (s *System) probeOtherL1s(now sim.Cycle, core int, line addrmap.Addr, p gsdram.Pattern) {
	for i, l1 := range s.l1 {
		if i == core {
			continue
		}
		if present, dirty := l1.Probe(line, p); present && dirty {
			l1.Invalidate(line, p)
			s.fillL2(line, p, true, false)
			s.ctr.CrossCoreProbe++
			s.cfg.Log.Coherence(now, flight.KindCrossProbe, i, uint64(line), p)
		}
	}
}

// overlapLines returns the addresses of the other-pattern lines that share
// words with (line, pattern) — the at-most-c columns {(k AND nz) XOR C}
// within the same DRAM row, where nz is the non-zero pattern of the pair
// (paper §4.1).
func (s *System) overlapLines(line addrmap.Addr, a *Access) (addrs []addrmap.Addr, other gsdram.Pattern) {
	var nz gsdram.Pattern
	if a.Pattern == gsdram.DefaultPattern {
		if a.AltPattern == gsdram.DefaultPattern {
			return nil, 0
		}
		nz, other = a.AltPattern, a.AltPattern
	} else {
		nz, other = a.Pattern, gsdram.DefaultPattern
	}
	loc, err := s.cfg.Mem.Spec.Decompose(line)
	if err != nil {
		return nil, 0
	}
	// Dedup donor columns with a linear scan over the (at most Chips)
	// results gathered so far — cheaper than a map at these sizes and
	// allocation-free once overlapBuf has grown to capacity.
	addrs = s.overlapBuf[:0]
	for k := 0; k < s.cfg.GS.Chips; k++ {
		l := loc
		l.Col = s.cfg.GS.CTL(k, nz, loc.Col)
		oa := s.cfg.Mem.Spec.Compose(l)
		dup := false
		for _, prev := range addrs {
			if prev == oa {
				dup = true
				break
			}
		}
		if !dup {
			addrs = append(addrs, oa)
		}
	}
	s.overlapBuf = addrs
	return addrs, other
}

// flushOverlaps writes back dirty other-pattern lines overlapping a fetch.
func (s *System) flushOverlaps(now sim.Cycle, line addrmap.Addr, a *Access) {
	addrs, other := s.overlapLines(line, a)
	for _, oa := range addrs {
		for _, c := range s.caches {
			if c.CleanLine(oa, other) {
				s.ctr.OverlapFlushes++
				s.cfg.Log.Coherence(now, flight.KindOverlapFlush, a.Core, uint64(oa), other)
				s.writeback(oa, other)
			}
		}
	}
}

// invalidateOverlaps drops other-pattern lines overlapping a store, writing
// back dirty ones first. A repeat of the last store whose other pattern
// is non-default has nothing to drop and returns at once (see invMemo).
func (s *System) invalidateOverlaps(line addrmap.Addr, a *Access) {
	memo := a.Pattern == gsdram.DefaultPattern && a.AltPattern != gsdram.DefaultPattern
	if memo && s.invMemoOK && s.invMemo == line && s.invMemoPatt == a.AltPattern {
		return
	}
	addrs, other := s.overlapLines(line, a)
	for _, oa := range addrs {
		for _, c := range s.caches {
			if present, dirty := c.Invalidate(oa, other); present {
				if dirty {
					s.writeback(oa, other)
				}
				s.ctr.OverlapInvals++
				s.cfg.Log.Coherence(s.q.Now(), flight.KindOverlapInval, a.Core, uint64(oa), other)
			}
		}
	}
	if memo {
		s.invMemo, s.invMemoPatt, s.invMemoOK = line, a.AltPattern, true
	}
}

// gatherLine returns the cache-line address that, read with pattern patt,
// contains the word at byte address a: the issued column is
// (chip & patt) ^ col for the chip holding that word under the shuffle
// (the closed form of machine.GatherAddr, verified against it in tests).
func (s *System) gatherLine(a addrmap.Addr, patt gsdram.Pattern) addrmap.Addr {
	loc, err := s.cfg.Mem.Spec.Decompose(s.lineOf(a))
	if err != nil {
		return s.lineOf(a)
	}
	word := int(a&addrmap.Addr(s.cfg.L1.LineBytes-1)) / 8
	chip := s.cfg.GS.ChipForWord(word, loc.Col)
	loc.Col = s.cfg.GS.CTL(chip, patt, loc.Col)
	return s.cfg.Mem.Spec.Compose(loc)
}

// Pending reports whether any fetch is still outstanding.
func (s *System) Pending() bool { return s.mshrs.Len() > 0 || s.ctrl.Pending() }
