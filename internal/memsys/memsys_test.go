package memsys

import (
	"testing"

	"gsdram/internal/addrmap"
	"gsdram/internal/sim"
)

type harness struct {
	q *sim.EventQueue
	s *System
}

func newHarness(t *testing.T, cores int, mutate func(*Config)) *harness {
	t.Helper()
	cfg := DefaultConfig(cores)
	if mutate != nil {
		mutate(&cfg)
	}
	q := &sim.EventQueue{}
	s, err := New(cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{q: q, s: s}
}

// access schedules a memory access at time `at` and returns the completion
// time holder.
func (h *harness) access(at sim.Cycle, a Access) *sim.Cycle {
	done := new(sim.Cycle)
	h.q.Schedule(at, func(now sim.Cycle) {
		onDone := func(t sim.Cycle) { *done = t }
		if t, hit := h.s.Access(now, &a, onDone); hit {
			h.q.Schedule(t, onDone)
		}
	})
	return done
}

func addr(bank, row, col int) addrmap.Addr {
	return addrmap.Default.Compose(addrmap.Loc{Bank: bank, Row: row, Col: col})
}

func TestConfigValidation(t *testing.T) {
	q := &sim.EventQueue{}
	cfg := DefaultConfig(1)
	cfg.Cores = 0
	if _, err := New(cfg, q); err == nil {
		t.Error("zero cores accepted")
	}
	cfg = DefaultConfig(1)
	cfg.GS.Chips = 3
	if _, err := New(cfg, q); err == nil {
		t.Error("bad GS params accepted")
	}
	cfg = DefaultConfig(1)
	cfg.L1.Ways = 0
	if _, err := New(cfg, q); err == nil {
		t.Error("bad L1 accepted")
	}
	cfg = DefaultConfig(1)
	cfg.Mem.ClockRatio = 0
	if _, err := New(cfg, q); err == nil {
		t.Error("bad mem config accepted")
	}
}

func TestColdMissThenL1Hit(t *testing.T) {
	h := newHarness(t, 1, nil)
	a := Access{Core: 0, Addr: addr(0, 10, 0)}
	d1 := h.access(0, a)
	d2 := h.access(10000, a)
	h.q.Run()
	// Cold miss: L1 (3) + L2 (18) + ACT+RD+burst (130).
	want1 := sim.Cycle(3 + 18 + 130)
	if *d1 != want1 {
		t.Fatalf("cold miss completed at %d, want %d", *d1, want1)
	}
	if *d2 != 10000+3 {
		t.Fatalf("L1 hit completed at %d, want %d", *d2, 10000+3)
	}
	s := h.s.Stats()
	if s.L1Hits != 1 || s.L1Misses != 1 || s.DRAMReads != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestL2HitFromSecondCore(t *testing.T) {
	h := newHarness(t, 2, nil)
	a := addr(0, 10, 0)
	h.access(0, Access{Core: 0, Addr: a})
	d2 := h.access(10000, Access{Core: 1, Addr: a})
	h.q.Run()
	if *d2 != 10000+3+18 {
		t.Fatalf("L2 hit completed at %d, want %d", *d2, 10000+3+18)
	}
	s := h.s.Stats()
	if s.L2Hits != 1 || s.DRAMReads != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestShuffleLatencyApplied(t *testing.T) {
	h := newHarness(t, 1, nil)
	// Keep both accesses inside the first refresh interval so a REF stall
	// does not skew the comparison.
	dPlain := h.access(0, Access{Core: 0, Addr: addr(0, 10, 0)})
	dShuf := h.access(10000, Access{Core: 0, Addr: addr(1, 10, 0), Shuffled: true, Pattern: 7})
	h.q.Run()
	plain := *dPlain
	shuf := *dShuf - 10000
	if shuf != plain+3 {
		t.Fatalf("shuffled access took %d, want %d (+3 shuffle latency)", shuf, plain+3)
	}
}

func TestMSHRMergesConcurrentMisses(t *testing.T) {
	h := newHarness(t, 2, nil)
	a := addr(0, 10, 0)
	d1 := h.access(0, Access{Core: 0, Addr: a})
	d2 := h.access(1, Access{Core: 1, Addr: a})
	h.q.Run()
	if *d1 == 0 || *d2 == 0 {
		t.Fatal("merged miss never completed")
	}
	if s := h.s.Stats(); s.DRAMReads != 1 {
		t.Fatalf("DRAM reads = %d, want 1 (MSHR merge)", s.DRAMReads)
	}
}

func TestPatternedLinesAreDistinct(t *testing.T) {
	h := newHarness(t, 1, nil)
	a := addr(0, 10, 0)
	h.access(0, Access{Core: 0, Addr: a})
	h.access(10000, Access{Core: 0, Addr: a, Pattern: 7, Shuffled: true})
	h.q.Run()
	if s := h.s.Stats(); s.DRAMReads != 2 {
		t.Fatalf("DRAM reads = %d, want 2 (distinct pattern lines)", s.DRAMReads)
	}
}

func TestStoreMissFetchesAndDirties(t *testing.T) {
	h := newHarness(t, 1, nil)
	d := h.access(0, Access{Core: 0, Addr: addr(0, 10, 0), Write: true})
	h.q.Run()
	if *d == 0 {
		t.Fatal("store never completed")
	}
	s := h.s.Stats()
	if s.Stores != 1 || s.DRAMReads != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestOverlapInvalidationOnStore(t *testing.T) {
	h := newHarness(t, 1, nil)
	// Fetch the pattern-7 gathered line over columns 0..7 of row 10.
	h.access(0, Access{Core: 0, Addr: addr(0, 10, 0), Pattern: 7, Shuffled: true})
	// Store to the default-pattern line at column 3 (overlaps the gather).
	h.access(10000, Access{Core: 0, Addr: addr(0, 10, 3), Write: true, Shuffled: true, AltPattern: 7})
	// Re-read the gathered line: it must have been invalidated.
	h.access(20000, Access{Core: 0, Addr: addr(0, 10, 0), Pattern: 7, Shuffled: true})
	h.q.Run()
	s := h.s.Stats()
	if s.OverlapInvals == 0 {
		t.Fatal("store did not invalidate overlapping patterned line")
	}
	if s.DRAMReads != 3 {
		t.Fatalf("DRAM reads = %d, want 3 (gather refetched after invalidation)", s.DRAMReads)
	}
}

func TestOverlapFlushBeforePatternedFetch(t *testing.T) {
	h := newHarness(t, 1, nil)
	// Dirty a default-pattern line in row 10, column 2.
	h.access(0, Access{Core: 0, Addr: addr(0, 10, 2), Write: true, Shuffled: true, AltPattern: 7})
	// Fetch the overlapping pattern-7 line: the dirty line must be flushed
	// to DRAM first so the gather observes it.
	h.access(10000, Access{Core: 0, Addr: addr(0, 10, 2), Pattern: 7, Shuffled: true})
	h.q.Run()
	s := h.s.Stats()
	if s.OverlapFlushes == 0 {
		t.Fatal("patterned fetch did not flush dirty overlapping line")
	}
	if s.Writebacks == 0 {
		t.Fatal("flush produced no writeback")
	}
}

func TestStoreInvalidatesAcrossCores(t *testing.T) {
	h := newHarness(t, 2, nil)
	// Core 1 caches the gathered line.
	h.access(0, Access{Core: 1, Addr: addr(0, 10, 0), Pattern: 7, Shuffled: true})
	// Core 0 stores to an overlapping default line.
	h.access(10000, Access{Core: 0, Addr: addr(0, 10, 5), Write: true, Shuffled: true, AltPattern: 7})
	// Core 1 re-reads its gathered line: must miss.
	h.access(20000, Access{Core: 1, Addr: addr(0, 10, 0), Pattern: 7, Shuffled: true})
	h.q.Run()
	if s := h.s.Stats(); s.DRAMReads != 3 {
		t.Fatalf("DRAM reads = %d, want 3 (cross-core invalidation)", s.DRAMReads)
	}
}

func TestCrossCoreDirtyProbe(t *testing.T) {
	h := newHarness(t, 2, nil)
	a := addr(0, 10, 0)
	h.access(0, Access{Core: 0, Addr: a, Write: true})
	d := h.access(10000, Access{Core: 1, Addr: a})
	h.q.Run()
	if *d == 0 {
		t.Fatal("cross-core read never completed")
	}
	s := h.s.Stats()
	if s.CrossCoreProbe != 1 {
		t.Fatalf("cross-core probes = %d, want 1", s.CrossCoreProbe)
	}
	if s.DRAMReads != 1 {
		t.Fatalf("DRAM reads = %d, want 1 (dirty copy supplied by L1 of core 0)", s.DRAMReads)
	}
}

func TestPrefetcherIssuesAndHelps(t *testing.T) {
	h := newHarness(t, 1, func(c *Config) { c.EnablePrefetch = true })
	// A long unit-stride scan from one PC.
	const n = 64
	for i := 0; i < n; i++ {
		h.access(sim.Cycle(i*500), Access{Core: 0, Addr: addr(0, 20, 0) + addrmap.Addr(i*64), PC: 0x400})
	}
	h.q.Run()
	s := h.s.Stats()
	if s.PrefIssued == 0 {
		t.Fatal("no prefetches issued on a strided scan")
	}
	if s.PrefUseful == 0 {
		t.Fatal("no prefetch proved useful")
	}
	if s.DRAMReads >= n {
		t.Fatalf("demand DRAM reads = %d, want < %d with prefetching", s.DRAMReads, n)
	}
}

func TestWritebackCascade(t *testing.T) {
	// Use tiny caches so dirty lines get pushed out to DRAM.
	h := newHarness(t, 1, func(c *Config) {
		c.L1.SizeBytes = 512 // 8 lines
		c.L2.SizeBytes = 1024
	})
	for i := 0; i < 64; i++ {
		h.access(sim.Cycle(i*1000), Access{Core: 0, Addr: addr(0, 10, i%128) + addrmap.Addr((i/128)*8192), Write: true})
	}
	h.q.Run()
	if s := h.s.Stats(); s.Writebacks == 0 {
		t.Fatal("no writebacks despite dirty evictions from tiny caches")
	}
}

func TestPendingDrains(t *testing.T) {
	h := newHarness(t, 1, nil)
	h.access(0, Access{Core: 0, Addr: addr(0, 10, 0)})
	h.q.Run()
	if h.s.Pending() {
		t.Fatal("system still pending after quiescence")
	}
}

func TestAccessBadCorePanics(t *testing.T) {
	h := newHarness(t, 1, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("bad core did not panic")
		}
	}()
	h.s.Access(0, &Access{Core: 5, Addr: 0}, func(sim.Cycle) {})
}

func TestCacheAndMemStatsExposed(t *testing.T) {
	h := newHarness(t, 2, nil)
	h.access(0, Access{Core: 0, Addr: addr(0, 10, 0)})
	h.q.Run()
	l1s, l2 := h.s.CacheStats()
	if len(l1s) != 2 {
		t.Fatalf("got %d L1 stats", len(l1s))
	}
	if l1s[0].Misses != 1 || l2.Misses != 1 {
		t.Fatalf("cache stats = %+v / %+v", l1s, l2)
	}
	if ms := h.s.MemStats(); ms.ReadsServed != 1 {
		t.Fatalf("mem stats = %+v", ms)
	}
	if ps := h.s.PrefetchStats(); ps.Trains != 0 {
		t.Fatalf("prefetch stats = %+v (prefetch disabled)", ps)
	}
}

// TestGatherReducesLineFetches reproduces the paper's headline effect at
// the memory-system level: summing one field from 64 tuples takes 64 line
// fetches with default-pattern reads but only 8 gathered fetches with
// pattern 7.
func TestGatherReducesLineFetches(t *testing.T) {
	// Row-store style: one default read per tuple.
	h1 := newHarness(t, 1, nil)
	for i := 0; i < 64; i++ {
		h1.access(sim.Cycle(i*500), Access{Core: 0, Addr: addr(0, 30, i)})
	}
	h1.q.Run()
	rowReads := h1.s.Stats().DRAMReads

	// GS-DRAM: one pattern-7 gather per 8 tuples.
	h2 := newHarness(t, 1, nil)
	for g := 0; g < 8; g++ {
		h2.access(sim.Cycle(g*500), Access{Core: 0, Addr: addr(0, 30, g*8), Pattern: 7, Shuffled: true})
	}
	h2.q.Run()
	gsReads := h2.s.Stats().DRAMReads

	if rowReads != 64 || gsReads != 8 {
		t.Fatalf("row-store fetches = %d (want 64), GS-DRAM fetches = %d (want 8)", rowReads, gsReads)
	}
}
