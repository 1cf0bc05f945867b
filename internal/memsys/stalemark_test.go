package memsys

import (
	"testing"

	"gsdram/internal/sim"
)

// TestStalePrefetchMarkSurvivesOverlapInvalidation pins a known defect
// of the prefetch usefulness count (Stats.PrefUseful): invalidateOverlaps
// drops an L2 line without clearing its prefetch mark, so a later demand
// refill of the line inherits the mark, and its next L2 hit counts as a
// useful prefetch although the line's last fill was a demand fetch.
// PrefUseful is in every pinned result digest, so the fix changes
// digests and this test with it: the fix must make the final hit count
// nothing.
func TestStalePrefetchMarkSurvivesOverlapInvalidation(t *testing.T) {
	h := newHarness(t, 2, func(c *Config) { c.EnablePrefetch = true })
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
	if _, marked := h.s.prefetched.Get(h.s.lineKey(x, 0)); !marked {
		t.Fatal("column 17's prefetched L2 line carries no mark")
	}

	// A pattern-7 store to the gathered line over columns 16..23
	// invalidates the default-pattern lines it overlaps (paper §4.1).
	h.access(h.q.Now()+1000, Access{Core: 0, Addr: addr(0, 20, 16), Pattern: 7, Write: true, Shuffled: true})
	h.q.Run()
	if present, _ := h.s.l2.Probe(x, 0); present {
		t.Fatal("the patterned store did not invalidate column 17's L2 line")
	}
	// The defect: the dropped line keeps its mark.
	if _, marked := h.s.prefetched.Get(h.s.lineKey(x, 0)); !marked {
		t.Fatal("the invalidated line's mark is gone: the stale-mark defect is fixed; update this test")
	}

	// Core 0 refills the line on demand from another PC, which does not
	// train a confident stride.
	reads := h.s.Stats().DRAMReads
	h.access(h.q.Now()+1000, Access{Core: 0, Addr: x, PC: 0x500})
	h.q.Run()
	if got := h.s.Stats().DRAMReads; got != reads+1 {
		t.Fatalf("demand refill made %d DRAM reads, want 1", got-reads)
	}

	// Core 1's load misses its own L1 and hits the demand-filled L2 line,
	// which today counts as a useful prefetch.
	useful := h.s.Stats().PrefUseful
	h.access(h.q.Now()+1000, Access{Core: 1, Addr: x, PC: 0x600})
	h.q.Run()
	if got := h.s.Stats().PrefUseful - useful; got != 1 {
		t.Fatalf("the L2 hit on a demand-refilled line counted %d useful prefetches; the stale mark made it count 1", got)
	}
}
