package memsys

import (
	"testing"

	"gsdram/internal/addrmap"
	"gsdram/internal/gsdram"
	"gsdram/internal/hashtab"
)

// TestLineKeyDistinguishesPatterns: the packed key keeps every (line,
// pattern) pair apart, is never 0 (the empty slot), and panics beyond
// its range instead of aliasing a line in range.
func TestLineKeyDistinguishesPatterns(t *testing.T) {
	s := &System{keyShift: 6}
	seen := map[uint64]bool{}
	for _, line := range []addrmap.Addr{0, 64, 1 << 20, 1<<53 - 64} {
		for _, p := range []gsdram.Pattern{0, 1, 7, 1<<16 - 1} {
			k := s.lineKey(line, p)
			if k == 0 || seen[k] {
				t.Fatalf("lineKey(%#x, %d) = %#x repeats or is 0", uint64(line), p, k)
			}
			seen[k] = true
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("lineKey accepted a line beyond its range")
		}
	}()
	s.lineKey(1<<53, 0)
}

// mshrCycle is one round of the outstanding-miss table's traffic: 16
// misses allocate entries, a second access to each finds its entry (an
// MSHR coalesce), and the fills free them.
func mshrCycle(tab *hashtab.Table[*mshrEntry], s *System, e *mshrEntry, base int) {
	for i := 0; i < 16; i++ {
		tab.Put(s.lineKey(addrmap.Addr((base+i)*64), 7), e)
	}
	for i := 0; i < 16; i++ {
		if _, ok := tab.Get(s.lineKey(addrmap.Addr((base+i)*64), 7)); !ok {
			panic("entry lost")
		}
	}
	for i := 0; i < 16; i++ {
		tab.Del(s.lineKey(addrmap.Addr((base+i)*64), 7))
	}
}

// BenchmarkMSHRTable measures MSHR allocate, lookup and free: one op is
// one mshrCycle of 16 entries, so ns/op / 48 is the cost of one table
// operation.
func BenchmarkMSHRTable(b *testing.B) {
	s := &System{keyShift: 6}
	var tab hashtab.Table[*mshrEntry]
	e := &mshrEntry{}
	mshrCycle(&tab, s, e, 0) // grow the table to its working size
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mshrCycle(&tab, s, e, i*16)
	}
}
