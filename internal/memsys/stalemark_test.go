package memsys

import (
	"testing"

	"gsdram/internal/addrmap"
	"gsdram/internal/sim"
)

// prefetchRow20 trains the stride prefetcher on a 2-core system and
// returns a line it prefetched into the L2 that no demand has touched.
// On the way it shows that a prefetched line's first demand L2 hit
// counts one useful prefetch (Stats.PrefUseful).
func prefetchRow20(t *testing.T, h *harness) addrmap.Addr {
	t.Helper()
	// A unit-stride scan of columns 0..15 of row 20 from one PC trains
	// the stride prefetcher, which runs ahead into columns 16..19.
	at := sim.Cycle(0)
	for col := 0; col < 16; col++ {
		h.access(at, Access{Core: 0, Addr: addr(0, 20, col), PC: 0x400})
		at += 1000
	}
	h.q.Run()
	x := addr(0, 20, 17)
	if present, _ := h.s.l2.Probe(x, 0); !present {
		t.Fatal("the scan did not prefetch column 17 into the L2")
	}

	// Core 1's load of column 16 misses its L1 and hits the prefetched
	// L2 line. Each later access comes from its own PC, so none trains a
	// confident stride.
	useful := h.s.Stats().PrefUseful
	h.access(h.q.Now()+1000, Access{Core: 1, Addr: addr(0, 20, 16), PC: 0x500})
	h.q.Run()
	if got := h.s.Stats().PrefUseful - useful; got != 1 {
		t.Fatalf("the first demand hit on a prefetched L2 line counted %d useful prefetches, want 1", got)
	}
	return x
}

// refillCountsNothing has core 0 refill the dropped line x on demand and
// core 1 hit it in the L2. The line's last fill was a demand fetch, so
// neither may count a useful prefetch.
func refillCountsNothing(t *testing.T, h *harness, x addrmap.Addr) {
	t.Helper()
	if present, _ := h.s.l2.Probe(x, 0); present {
		t.Fatal("column 17's L2 line was not dropped")
	}
	before := h.s.Stats()
	h.access(h.q.Now()+1000, Access{Core: 0, Addr: x, PC: 0x600})
	h.q.Run()
	if got := h.s.Stats().DRAMReads - before.DRAMReads; got != 1 {
		t.Fatalf("demand refill made %d DRAM reads, want 1", got)
	}
	h.access(h.q.Now()+1000, Access{Core: 1, Addr: x, PC: 0x700})
	h.q.Run()
	after := h.s.Stats()
	if got := after.L2Hits - before.L2Hits; got != 1 {
		t.Fatalf("core 1's load made %d L2 hits, want 1", got)
	}
	if got := after.PrefUseful - before.PrefUseful; got != 0 {
		t.Fatalf("the refill and the L2 hit on it counted %d useful prefetches, want 0: the line's last fill was a demand fetch", got)
	}
}

// TestOverlapInvalidationDropsPrefetchMark: a line that a §4.1 overlap
// invalidation drops loses its prefetch mark with it, so a demand
// refill of the line does not inherit the mark.
func TestOverlapInvalidationDropsPrefetchMark(t *testing.T) {
	h := newHarness(t, 2, func(c *Config) { c.EnablePrefetch = true })
	x := prefetchRow20(t, h)
	// A pattern-7 store to the gathered line over columns 16..23
	// invalidates the default-pattern lines it overlaps (paper §4.1).
	h.access(h.q.Now()+1000, Access{Core: 0, Addr: addr(0, 20, 16), Pattern: 7, Write: true, Shuffled: true})
	h.q.Run()
	refillCountsNothing(t, h, x)
}

// TestScattervDropsPrefetchMark is the indexed twin: a scatterv that
// covers a word of the prefetched line invalidates it in every cache
// (vcohLine), and the mark goes with it.
func TestScattervDropsPrefetchMark(t *testing.T) {
	h := newHarness(t, 2, func(c *Config) { c.EnablePrefetch = true })
	x := prefetchRow20(t, h)
	h.vaccess(h.q.Now()+1000, VAccess{Core: 0, Addrs: []addrmap.Addr{x + 8}, Write: true})
	h.q.Run()
	refillCountsNothing(t, h, x)
}
