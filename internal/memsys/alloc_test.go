package memsys

import (
	"testing"

	"gsdram/internal/addrmap"
	"gsdram/internal/sim"
)

// allocLines is the length of the sequential load streams below: 768 KB
// of consecutive lines, far beyond the L1, so every load misses it and
// trains the prefetcher.
const allocLines = 12288

// TestWarmAccessZeroAllocs pins the functional fast-forward's per-access
// path allocation-free, with the stride prefetcher off and on. With it
// on, every load of the sequential stream trains a confident stride, and
// the candidates must land in the system's reused buffer.
func TestWarmAccessZeroAllocs(t *testing.T) {
	for _, pf := range []bool{false, true} {
		h := newHarness(t, 1, func(c *Config) { c.EnablePrefetch = pf })
		stream := func() {
			for i := 0; i < allocLines; i++ {
				h.s.WarmAccess(Access{Addr: addrmap.Addr(i * 64), PC: 0x40})
			}
		}
		stream() // settle the tables and the candidate buffer
		if allocs := testing.AllocsPerRun(5, stream); allocs != 0 {
			t.Errorf("prefetch=%v: %d WarmAccess calls allocate %v times, want 0", pf, allocLines, allocs)
		}
	}
}

// TestAccessPrefetchingMissZeroAllocs pins the detailed miss path
// allocation-free while the prefetcher trains and issues: each run sends
// a burst of sequential L1-missing loads through the memory system and
// drains the queue, so MSHRs, controller requests and prefetch
// candidates must all recycle.
func TestAccessPrefetchingMissZeroAllocs(t *testing.T) {
	h := newHarness(t, 1, func(c *Config) { c.EnablePrefetch = true })
	var next addrmap.Addr
	onDone := func(sim.Cycle) {}
	issue := func(now sim.Cycle) {
		for i := 0; i < 64; i++ {
			h.s.Access(now, &Access{Addr: next, PC: 0x40}, onDone)
			next += 64
		}
	}
	run := func() {
		h.q.Schedule(h.q.Now()+100000, issue)
		h.q.Run()
	}
	for i := 0; i < 3; i++ {
		run() // settle the pools
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("prefetching miss burst allocates %v times per run, want 0", allocs)
	}
	if h.s.PrefetchStats().Issues == 0 {
		t.Fatal("the prefetcher issued nothing; the test does not exercise it")
	}
}
