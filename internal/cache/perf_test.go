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
// whose presence scan repeats the lookup's.
func BenchmarkCacheMissFill(b *testing.B) { benchMissFill(b, (*Cache).Fill) }

// BenchmarkCacheMissFillNew measures the same miss followed by FillNew,
// which skips the presence scan.
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
