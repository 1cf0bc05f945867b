// Package sample implements SMARTS-style interval sampling for the
// event-driven GS-DRAM simulator (DESIGN.md §5.7): execution alternates
// between functional fast-forward (fastsim.Functional driving
// memsys.WarmAccess, the detailed access path run in zero time, under
// memsys.System.Uncounted — caches, coherence state and predictor tables
// keep evolving at zero simulated cost, and no counter moves), a
// detailed warm-up window that re-heats the short-lived
// microarchitectural state the functional path cannot carry (MSHRs, row
// buffers, controller queues), and a detailed measurement window whose
// CPI, memory-latency and energy-per-instruction samples aggregate into
// a point estimate with a Student-t confidence interval. Window
// placement within each interval is drawn from a seed-derived PRNG, so a
// (config, seed) pair reproduces the exact same estimate on any machine
// at any worker count.
package sample

import (
	"fmt"

	"gsdram/internal/cache"
	"gsdram/internal/cpu"
	"gsdram/internal/energy"
	"gsdram/internal/fastsim"
	"gsdram/internal/memctrl"
	"gsdram/internal/memsys"
	"gsdram/internal/sim"
	"gsdram/internal/stats"
)

// Config parameterises one sampled run. All units are instructions. The
// JSON names are the canonical spelling of the experiment spec's
// sampling section (internal/spec), so they must not change.
type Config struct {
	// Interval is the sampling unit: each interval fast-forwards
	// Interval-Warmup-Measure instructions functionally and simulates
	// Warmup+Measure in detail. Must exceed Warmup+Measure.
	Interval uint64 `json:"interval"`
	// Warmup is the detailed warm-up prefix of each window: simulated
	// cycle-accurately to re-heat MSHRs, row buffers and queues, but
	// excluded from the samples.
	Warmup uint64 `json:"warmup"`
	// Measure is the measured suffix of each window.
	Measure uint64 `json:"measure"`
	// Seed derives the per-interval window placement (independent of the
	// workload's own seed).
	Seed uint64 `json:"seed"`
}

// Validate reports whether the config describes a runnable sampling
// schedule: a positive measurement window that fits inside the interval.
func (c Config) Validate() error {
	if c.Measure == 0 {
		return fmt.Errorf("sample: measure must be positive")
	}
	// Interval > Warmup+Measure, compared without forming the sum, which
	// wraps for a warm-up near 2^64.
	if c.Warmup >= c.Interval || c.Measure >= c.Interval-c.Warmup {
		return fmt.Errorf("sample: interval (%d) must exceed warmup (%d) + measure (%d)",
			c.Interval, c.Warmup, c.Measure)
	}
	return nil
}

// confidence is the level of stats.MeanCI's intervals, which every
// estimate reports.
const confidence = 0.95

// Target is the rig a sampled run drives: its detailed memory hierarchy
// and the single instruction stream to execute on core 0. Windows run
// with blocking stores, like the detailed runs they estimate.
type Target struct {
	Q      *sim.EventQueue
	Mem    *memsys.System
	Stream cpu.Stream
}

// Result is the sampled estimate.
type Result struct {
	// Windows is the number of completed measurement windows (= samples).
	Windows int
	// Instructions is the exact retired-instruction count of the whole
	// program (fast-forwarded + detailed).
	Instructions            uint64
	MeasuredInstructions    uint64
	WarmupInstructions      uint64
	FastForwardInstructions uint64
	// SkippedInstructions is always 0: every fast-forwarded instruction
	// warms the hierarchy. It stays because run documents and committed
	// result digests carry it.
	SkippedInstructions uint64
	// DetailedCycles is the simulated time actually spent in detailed
	// windows (warm-up + measurement).
	DetailedCycles uint64

	// CPI is the mean cycles-per-instruction over the measurement
	// windows; CPIHalf is the half-width of its confidence interval.
	CPI        float64
	CPIHalf    float64
	Confidence float64
	// Cycles is the extrapolated runtime: CPI x Instructions.
	Cycles uint64

	// AvgReadWait is the mean DRAM read queueing delay (CPU cycles per
	// served read) over the windows, with its CI half-width.
	AvgReadWait  float64
	ReadWaitHalf float64

	// EPI is the mean energy per instruction (nanojoules), with its CI
	// half-width; Energy is the extrapolated full-run breakdown.
	EPI     float64
	EPIHalf float64
	Energy  energy.Report

	// CPISamples are the per-window CPI values, for error validation.
	CPISamples []float64
}

// SampledFraction is the fraction of instructions simulated in detail.
func (r *Result) SampledFraction() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.MeasuredInstructions+r.WarmupInstructions) / float64(r.Instructions)
}

// RelCI is the CI half-width relative to the CPI estimate.
func (r *Result) RelCI() float64 {
	if r.CPI == 0 {
		return 0
	}
	return r.CPIHalf / r.CPI
}

// snapshot captures the counters the per-window samples difference. Only
// the fields the latency and energy samples consume are carried.
type snapshot struct {
	l1Hits, l1Misses                                  uint64
	l2Hits, l2Misses                                  uint64
	acts, reads, writes, refreshes, active, queueWait uint64
}

func snap(mem *memsys.System) snapshot {
	l1s, l2 := mem.CacheStats()
	ms := mem.MemStats()
	var s snapshot
	for _, c := range l1s {
		s.l1Hits += c.Hits
		s.l1Misses += c.Misses
	}
	s.l2Hits, s.l2Misses = l2.Hits, l2.Misses
	s.acts, s.reads, s.writes = ms.ACTs, ms.ReadsServed, ms.WritesServed
	s.refreshes, s.active, s.queueWait = ms.Refreshes, ms.ActiveCycles, ms.ReadQueueWait
	return s
}

func (a snapshot) sub(b snapshot) snapshot {
	return snapshot{
		l1Hits: a.l1Hits - b.l1Hits, l1Misses: a.l1Misses - b.l1Misses,
		l2Hits: a.l2Hits - b.l2Hits, l2Misses: a.l2Misses - b.l2Misses,
		acts: a.acts - b.acts, reads: a.reads - b.reads, writes: a.writes - b.writes,
		refreshes: a.refreshes - b.refreshes, active: a.active - b.active,
		queueWait: a.queueWait - b.queueWait,
	}
}

func (a snapshot) add(b snapshot) snapshot {
	return snapshot{
		l1Hits: a.l1Hits + b.l1Hits, l1Misses: a.l1Misses + b.l1Misses,
		l2Hits: a.l2Hits + b.l2Hits, l2Misses: a.l2Misses + b.l2Misses,
		acts: a.acts + b.acts, reads: a.reads + b.reads, writes: a.writes + b.writes,
		refreshes: a.refreshes + b.refreshes, active: a.active + b.active,
		queueWait: a.queueWait + b.queueWait,
	}
}

// activity converts a counter delta into the energy model's input.
func (d snapshot) activity(cycles, instrs uint64, cores int) energy.Activity {
	return energy.Activity{
		Runtime:      sim.Cycle(cycles),
		FreqGHz:      4,
		Cores:        cores,
		Instructions: instrs,
		L1:           []cache.Stats{{Hits: d.l1Hits, Misses: d.l1Misses}},
		L2:           cache.Stats{Hits: d.l2Hits, Misses: d.l2Misses},
		Mem: memctrl.Stats{
			ACTs: d.acts, ReadsServed: d.reads, WritesServed: d.writes,
			Refreshes: d.refreshes, ActiveCycles: d.active,
		},
	}
}

// state is the sampler's accumulator: progress counters and the
// per-window samples the estimate is computed from.
type state struct {
	interval   uint64 // completed intervals
	instrs     uint64 // total retired
	ffInstrs   uint64
	warmInstrs uint64
	measInstrs uint64
	detCycles  uint64
	measCycles uint64

	cpis, waits, epis []float64
	agg               snapshot // summed measurement-phase counter deltas
	cores             int
}

// instrCount is the retired-instruction weight of one op, matching
// cpu.Core's accounting: a compute block of n cycles is n instructions, a
// memory op is one.
func instrCount(op cpu.Op) uint64 {
	if op.Kind == cpu.OpCompute {
		return uint64(op.Cycles)
	}
	return 1
}

// intervalRand derives the PRNG placing interval k's window: a splitmix64
// mix of the sampling seed and the interval index, so placement is a pure
// function of (seed, k) — worker count cannot perturb it.
func intervalRand(seed, k uint64) *sim.Rand {
	z := seed + 0x9e3779b97f4a7c15*(k+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return sim.NewRand(z ^ (z >> 31))
}

// fastForward executes up to budget instructions functionally, warming
// the hierarchy with every memory op. Ops are consumed whole (a compute
// block may overshoot). Returns false when the stream ended.
func (st *state) fastForward(f *fastsim.Functional, s cpu.Stream, budget uint64) bool {
	for done := uint64(0); done < budget; {
		op, ok := s.Next()
		if !ok {
			return false
		}
		f.Exec(0, op)
		n := instrCount(op)
		done += n
		st.instrs += n
		st.ffInstrs += n
	}
	return true
}

// windowStream feeds a measurement core a bounded slice of the program:
// Warmup+Measure instructions, then end-of-stream. It captures the
// warm-up/measurement boundary — the queue's clock and a counter
// snapshot at the instant the first measured op is handed out, which is
// exact because the core advances the queue to its local time before
// every stream pull.
type windowStream struct {
	src      cpu.Stream
	q        *sim.EventQueue
	mem      *memsys.System
	budget   uint64
	warmLeft uint64

	served      uint64
	measured    uint64
	boundary    sim.Cycle
	boundarySet bool
	bsnap       snapshot
	exhausted   bool
}

// Next implements cpu.Stream.
func (ws *windowStream) Next() (cpu.Op, bool) {
	if ws.budget == 0 {
		return cpu.Op{}, false
	}
	op, ok := ws.src.Next()
	if !ok {
		ws.exhausted = true
		ws.budget = 0
		return cpu.Op{}, false
	}
	n := instrCount(op)
	if ws.warmLeft == 0 {
		if !ws.boundarySet {
			ws.boundarySet = true
			ws.boundary = ws.q.Now()
			ws.bsnap = snap(ws.mem)
		}
		ws.measured += n
	} else if n >= ws.warmLeft {
		// An op straddling the boundary counts entirely as warm-up.
		ws.warmLeft = 0
	} else {
		ws.warmLeft -= n
	}
	if n >= ws.budget {
		ws.budget = 0
	} else {
		ws.budget -= n
	}
	ws.served += n
	return op, true
}

// window runs one detailed warm-up + measurement window on a fresh core
// and drains the queue back to quiescence. Returns false when the
// program ended inside the window.
func (st *state) window(cfg Config, t Target) (bool, error) {
	ws := &windowStream{
		src:      t.Stream,
		q:        t.Q,
		mem:      t.Mem,
		budget:   cfg.Warmup + cfg.Measure,
		warmLeft: cfg.Warmup,
	}
	start := t.Q.Now()
	core := cpu.New(0, t.Q, t.Mem, ws, nil)
	core.Start(start)
	t.Q.Run()
	cs := core.Stats()
	if !cs.Finished {
		return false, fmt.Errorf("sample: measurement core did not finish")
	}
	st.instrs += ws.served
	st.warmInstrs += ws.served - ws.measured
	st.measInstrs += ws.measured
	st.detCycles += uint64(cs.FinishCycle - start)
	if ws.boundarySet && ws.measured > 0 {
		wcyc := uint64(cs.FinishCycle - ws.boundary)
		d := snap(t.Mem).sub(ws.bsnap)
		st.cpis = append(st.cpis, float64(wcyc)/float64(ws.measured))
		if d.reads > 0 {
			st.waits = append(st.waits, float64(d.queueWait)/float64(d.reads))
		} else {
			st.waits = append(st.waits, 0)
		}
		rep := energy.Estimate(d.activity(wcyc, ws.measured, st.cores), energy.DefaultDRAM(), energy.DefaultCPU())
		st.epis = append(st.epis, rep.TotalMJ()*1e6/float64(ws.measured))
		st.measCycles += wcyc
		st.agg = st.agg.add(d)
	}
	return !ws.exhausted, nil
}

// Run executes the target's stream to completion under interval
// sampling and returns the estimate.
func Run(cfg Config, t Target) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l1s, _ := t.Mem.CacheStats()
	st := &state{cores: len(l1s)}
	f := fastsim.NewFunctional(t.Mem)
	slack := cfg.Interval - cfg.Warmup - cfg.Measure
	// Each iteration fast-forwards the previous interval's post-window
	// slack plus this interval's offset in one call.
	var pending uint64
	for {
		off := intervalRand(cfg.Seed, st.interval).Uint64n(slack + 1)
		var more bool
		t.Mem.Uncounted(func() { more = st.fastForward(f, t.Stream, pending+off) })
		if !more {
			break
		}
		more, err := st.window(cfg, t)
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
		pending = slack - off
		st.interval++
	}
	return st.finalize(cfg)
}

func (st *state) finalize(cfg Config) (*Result, error) {
	if len(st.cpis) == 0 {
		return nil, fmt.Errorf("sample: program ended before any measurement window completed; reduce Interval (%d)", cfg.Interval)
	}
	cpi, cpiHalf, err := stats.MeanCI(st.cpis)
	if err != nil {
		return nil, err
	}
	wait, waitHalf, err := stats.MeanCI(st.waits)
	if err != nil {
		return nil, err
	}
	epi, epiHalf, err := stats.MeanCI(st.epis)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Windows:                 len(st.cpis),
		Instructions:            st.instrs,
		MeasuredInstructions:    st.measInstrs,
		WarmupInstructions:      st.warmInstrs,
		FastForwardInstructions: st.ffInstrs,
		DetailedCycles:          st.detCycles,
		CPI:                     cpi,
		CPIHalf:                 cpiHalf,
		Confidence:              confidence,
		Cycles:                  uint64(cpi*float64(st.instrs) + 0.5),
		AvgReadWait:             wait,
		ReadWaitHalf:            waitHalf,
		EPI:                     epi,
		EPIHalf:                 epiHalf,
		CPISamples:              st.cpis,
	}
	// Extrapolate the energy breakdown by scaling the aggregated
	// measurement-phase report to the full instruction count: runtime,
	// command counts and cache activity all scale with the same ratio
	// under the sampling hypothesis (windows are representative).
	rep := energy.Estimate(st.agg.activity(st.measCycles, st.measInstrs, st.cores),
		energy.DefaultDRAM(), energy.DefaultCPU())
	scale := float64(st.instrs) / float64(st.measInstrs)
	rep.DRAMCommandMJ *= scale
	rep.DRAMBackgroundMJ *= scale
	rep.DRAMRefreshMJ *= scale
	rep.CPUDynamicMJ *= scale
	rep.CPUStaticMJ *= scale
	res.Energy = rep
	return res, nil
}
