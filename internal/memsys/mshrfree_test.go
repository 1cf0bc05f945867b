package memsys

import (
	"testing"

	"gsdram/internal/flight"
	"gsdram/internal/gsdram"
)

// TestMSHRFreeNamesAllocatingCore: every MSHR free in the event log names
// the core whose access allocated the entry, prefetch entries included.
// Core 1's eight concurrent demand misses leave eight pooled entries
// behind; core 0's unit-stride scan of 16 columns from one PC then trains
// the prefetcher, whose entries reuse them.
func TestMSHRFreeNamesAllocatingCore(t *testing.T) {
	log := flight.New(0, 0, 0, 1024)
	h := newHarness(t, 2, func(c *Config) {
		c.EnablePrefetch = true
		c.Log = log
	})
	for i := 0; i < 8; i++ {
		h.access(0, Access{Core: 1, Addr: addr(i, 30, 0), PC: 0x700 + uint64(i)})
	}
	h.q.Run()
	at := h.q.Now() + 1000
	for col := 0; col < 16; col++ {
		h.access(at, Access{Core: 0, Addr: addr(0, 20, col), PC: 0x400})
		at += 1000
	}
	h.q.Run()

	type line struct {
		addr uint64
		patt gsdram.Pattern
	}
	allocCore := map[line]int16{}
	allocs, frees, wrong := 0, 0, 0
	for _, ev := range log.Snapshot(flight.CompMSHR) {
		l := line{ev.Addr, ev.Pattern}
		switch ev.Kind {
		case flight.KindMSHRAlloc:
			allocs++
			allocCore[l] = ev.Core
		case flight.KindMSHRFree:
			frees++
			c, ok := allocCore[l]
			if !ok {
				t.Fatalf("free of %#x/%v at %d has no alloc", ev.Addr, ev.Pattern, ev.At)
			}
			if ev.Core != c {
				wrong++
				t.Errorf("free of %#x/%v at %d names core %d, its alloc core %d", ev.Addr, ev.Pattern, ev.At, ev.Core, c)
			}
			delete(allocCore, l)
		}
	}
	if h.s.Stats().PrefIssued == 0 {
		t.Fatal("the scan issued no prefetch; the test does not exercise prefetch entries")
	}
	if frees != allocs {
		t.Fatalf("%d allocs but %d frees", allocs, frees)
	}
	if wrong > 0 {
		t.Fatalf("%d of %d frees name the wrong core", wrong, frees)
	}
}
