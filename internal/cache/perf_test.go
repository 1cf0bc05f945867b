package cache

import (
	"testing"

	"gsdram/internal/addrmap"
	"gsdram/internal/gsdram"
)

// missFill streams one demand miss and its fill through c: the lookup
// of a line four capacities away from the last use of its set always
// misses, and the fill always evicts.
func missFill(c *Cache, fill func(*Cache, addrmap.Addr, gsdram.Pattern, bool) (Line, bool), i int) {
	a := addrmap.Addr(i%(4*len(c.keys))) * addrmap.Addr(c.cfg.LineBytes)
	if !c.Lookup(a, 0, false) {
		fill(c, a, 0, false)
	}
}

func benchMissFill(b *testing.B, fill func(*Cache, addrmap.Addr, gsdram.Pattern, bool) (Line, bool)) {
	c, err := New(L2Default())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4*len(c.keys); i++ {
		missFill(c, fill, i) // fill every way: each timed fill evicts
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		missFill(c, fill, i)
	}
}

// BenchmarkCacheMissFill measures an L2 demand miss followed by Fill,
// whose presence check repeats the lookup's.
func BenchmarkCacheMissFill(b *testing.B) { benchMissFill(b, (*Cache).Fill) }

// BenchmarkCacheMissFillNew measures the same miss followed by FillNew,
// which skips the presence check.
func BenchmarkCacheMissFillNew(b *testing.B) { benchMissFill(b, (*Cache).FillNew) }

// TestMissFillZeroAllocs pins the miss-and-fill path allocation-free for
// both fills.
func TestMissFillZeroAllocs(t *testing.T) {
	c := mustNew(t, L1Default())
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() { missFill(c, (*Cache).Fill, i); i++ }); allocs != 0 {
		t.Errorf("miss then Fill allocates %v times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { missFill(c, (*Cache).FillNew, i); i++ }); allocs != 0 {
		t.Errorf("miss then FillNew allocates %v times, want 0", allocs)
	}
}

// TestCacheOpsZeroAllocs pins every other operation allocation-free: a
// load and a store hit, Probe, a refreshing Fill, Mark, Unmark,
// CleanLine, Invalidate and the counter save and restore.
func TestCacheOpsZeroAllocs(t *testing.T) {
	c := mustNew(t, L1Default())
	a := addrmap.Addr(0x1000)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Fill(a, 0, false)
		c.Lookup(a, 0, false)
		c.Lookup(a, 0, true)
		c.Probe(a, 0)
		c.Mark(a, 0)
		c.Unmark(a, 0)
		c.CleanLine(a, 0)
		c.Invalidate(a, 0)
		c.RestoreCounters(c.SaveCounters())
	})
	if allocs != 0 {
		t.Errorf("the cache operations allocate %v times, want 0", allocs)
	}
}

// BenchmarkCacheLookup measures L2 lookups into full sets, walking the
// sets in turn: a hit on the way the set used last, a hit on another way,
// and a miss.
func BenchmarkCacheLookup(b *testing.B) {
	c, err := New(L2Default())
	if err != nil {
		b.Fatal(err)
	}
	sets := len(c.keys) / c.ways
	// line(s, w) is the w-th line of set s; ways 0..Ways-1 are resident.
	line := func(s, w int) addrmap.Addr { return addrmap.Addr((w*sets + s) * c.cfg.LineBytes) }
	for w := 0; w < c.ways; w++ {
		for s := 0; s < sets; s++ {
			c.FillNew(line(s, w), 0, false)
		}
	}
	b.Run("mru-hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Lookup(line(i%sets, c.ways-1), 0, false)
		}
	})
	b.Run("other-way-hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Lookup(line(i%sets, i/sets%c.ways), 0, false)
		}
	})
	b.Run("miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Lookup(line(i%sets, c.ways+i/sets%c.ways), 0, false)
		}
	})
}
