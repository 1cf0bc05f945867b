// Package fastsim provides a lightweight, non-event-driven timing model
// for single-core, compute-dominated workloads (the GEMM evaluation of
// paper §5.2). It reuses the cache models and an open-row DRAM latency
// approximation, trading the event-driven controller's queueing fidelity
// for the speed needed to walk hundreds of millions of accesses.
//
// The pipelined in-order core retires one instruction per cycle; an L1 hit
// causes no stall, lower levels stall the core for their latency. This is
// the standard simple-core approximation for loop kernels whose loads are
// independent.
package fastsim

import (
	"gsdram/internal/addrmap"
	"gsdram/internal/cache"
	"gsdram/internal/dram"
	"gsdram/internal/gsdram"
)

// Config parameterises the model.
type Config struct {
	Spec       addrmap.Spec
	L1         cache.Config
	L2         cache.Config
	L2Latency  uint64 // stall cycles on an L1 miss / L2 hit
	Timing     dram.Timing
	ClockRatio int
	// ShuffleLatency is added to DRAM accesses of shuffled lines.
	ShuffleLatency uint64
}

// DefaultConfig matches Table 1 and the event-driven model's parameters.
func DefaultConfig() Config {
	return Config{
		Spec:           addrmap.Default,
		L1:             cache.L1Default(),
		L2:             cache.L2Default(),
		L2Latency:      18,
		Timing:         dram.DDR3_1600(),
		ClockRatio:     5,
		ShuffleLatency: 3,
	}
}

// Stats reports the model's activity.
type Stats struct {
	Cycles       uint64
	Instructions uint64
	L1Hits       uint64
	L1Misses     uint64
	L2Hits       uint64
	L2Misses     uint64
	RowHits      uint64
	RowMisses    uint64 // includes row conflicts
}

// Model is one single-core machine instance.
type Model struct {
	cfg Config
	l1  *cache.Cache
	l2  *cache.Cache

	// openRow[bank key] is the open row, -1 when the bank is closed. A
	// dense slice (channels × ranks × banks entries) keeps the open-row
	// check off the map hash path in the per-access loop.
	openRow []int

	// lineMask strips the intra-line offset (precomputed from L1
	// LineBytes for the hot Access path).
	lineMask addrmap.Addr

	// Precomputed DRAM latencies in CPU cycles.
	latRowHit      uint64
	latRowClosed   uint64
	latRowConflict uint64

	stats Stats
}

// New builds a model.
func New(cfg Config) (*Model, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	l1, err := cache.New(cfg.L1)
	if err != nil {
		return nil, err
	}
	l2, err := cache.New(cfg.L2)
	if err != nil {
		return nil, err
	}
	r := uint64(cfg.ClockRatio)
	t := cfg.Timing
	m := &Model{
		cfg:            cfg,
		l1:             l1,
		l2:             l2,
		openRow:        make([]int, cfg.Spec.Channels*cfg.Spec.Ranks*cfg.Spec.Banks),
		lineMask:       ^addrmap.Addr(cfg.L1.LineBytes - 1),
		latRowHit:      r * uint64(t.CL+t.TBL),
		latRowClosed:   r * uint64(t.TRCD+t.CL+t.TBL),
		latRowConflict: r * uint64(t.TRP+t.TRCD+t.CL+t.TBL),
	}
	for i := range m.openRow {
		m.openRow[i] = -1
	}
	return m, nil
}

// Stats returns a snapshot of the counters.
func (m *Model) Stats() Stats { return m.stats }

// Compute retires n ALU instructions.
func (m *Model) Compute(n int) {
	m.stats.Instructions += uint64(n)
	m.stats.Cycles += uint64(n)
}

// Access performs one load or store of the line containing addr with the
// given pattern ID. L1 hits retire in the pipeline (1 cycle); misses stall
// for the lower levels' latency.
func (m *Model) Access(addr addrmap.Addr, patt gsdram.Pattern, shuffled, write bool) {
	m.stats.Instructions++
	m.stats.Cycles++
	line := addr & m.lineMask
	if m.l1.Lookup(line, patt, write) {
		m.stats.L1Hits++
		return
	}
	m.stats.L1Misses++
	// Both fills below follow a lookup miss on the same level with no
	// fill of that level in between, so they skip the presence scan
	// (cache.FillNew); the L2 fill does not touch the L1.
	if m.l2.Lookup(line, patt, false) {
		m.stats.L2Hits++
		m.stats.Cycles += m.cfg.L2Latency
		m.fillL1(line, patt, write)
		return
	}
	m.stats.L2Misses++
	m.stats.Cycles += m.cfg.L2Latency + m.dramLatency(line)
	if shuffled {
		m.stats.Cycles += m.cfg.ShuffleLatency
	}
	if ev, has := m.l2.FillNew(line, patt, false); has && ev.Dirty {
		// Dirty writeback: posted, no stall, but it occupies the bank.
		m.touchRow(ev.Addr)
	}
	m.fillL1(line, patt, write)
}

// fillL1 fills a line that has just missed in the L1. Its dirty victim
// falls into the L2, which may still hold it, so that fill keeps the
// presence scan.
func (m *Model) fillL1(line addrmap.Addr, patt gsdram.Pattern, dirty bool) {
	if ev, has := m.l1.FillNew(line, patt, dirty); has && ev.Dirty {
		m.l2.Fill(ev.Addr, ev.Pattern, true)
	}
}

// dramLatency models an open-row bank: hit, closed, or conflict latency.
func (m *Model) dramLatency(line addrmap.Addr) uint64 {
	loc, err := m.cfg.Spec.Decompose(line)
	if err != nil {
		return m.latRowConflict
	}
	key := (loc.Channel*m.cfg.Spec.Ranks+loc.Rank)*m.cfg.Spec.Banks + loc.Bank
	open := m.openRow[key]
	switch {
	case open == loc.Row:
		m.stats.RowHits++
		return m.latRowHit
	case open < 0:
		m.stats.RowMisses++
		m.openRow[key] = loc.Row
		return m.latRowClosed
	default:
		m.stats.RowMisses++
		m.openRow[key] = loc.Row
		return m.latRowConflict
	}
}

// touchRow updates the open-row state for background traffic (writebacks)
// without charging latency to the core.
func (m *Model) touchRow(line addrmap.Addr) {
	if loc, err := m.cfg.Spec.Decompose(line); err == nil {
		key := (loc.Channel*m.cfg.Spec.Ranks+loc.Rank)*m.cfg.Spec.Banks + loc.Bank
		m.openRow[key] = loc.Row
	}
}

// CacheStats returns (L1, L2) statistics.
func (m *Model) CacheStats() (cache.Stats, cache.Stats) {
	return m.l1.Stats(), m.l2.Stats()
}
