package memsys

import (
	"testing"

	"gsdram/internal/addrmap"
	"gsdram/internal/gsdram"
	"gsdram/internal/sim"
)

// TestLineTableMatchesMap drives a lineTable and a Go map through the
// same random puts, gets and deletes and checks they agree after every
// step. The keys come from a small pool of packed (line, pattern) keys,
// so probe runs form, wrap around and are cut by deletions.
func TestLineTableMatchesMap(t *testing.T) {
	rng := sim.NewRand(9)
	s := &System{keyShift: 6}
	var pool []uint64
	for line := 0; line < 48; line++ {
		for _, p := range []gsdram.Pattern{0, 3, 7} {
			pool = append(pool, s.lineKey(addrmap.Addr(line*64), p))
		}
	}
	var tab lineTable[int]
	ref := map[uint64]int{}
	for step := 0; step < 200000; step++ {
		k := pool[rng.Intn(len(pool))]
		switch rng.Intn(3) {
		case 0:
			tab.put(k, step)
			ref[k] = step
		case 1:
			got, gok := tab.del(k)
			want, wok := ref[k]
			delete(ref, k)
			if got != want || gok != wok {
				t.Fatalf("step %d: del(%#x) = (%d, %v), map (%d, %v)", step, k, got, gok, want, wok)
			}
		default:
			got, gok := tab.get(k)
			want, wok := ref[k]
			if got != want || gok != wok {
				t.Fatalf("step %d: get(%#x) = (%d, %v), map (%d, %v)", step, k, got, gok, want, wok)
			}
		}
		if tab.len() != len(ref) {
			t.Fatalf("step %d: len %d, map %d", step, tab.len(), len(ref))
		}
	}
	for k, want := range ref {
		if got, ok := tab.get(k); !ok || got != want {
			t.Fatalf("final get(%#x) = (%d, %v), map (%d, true)", k, got, ok, want)
		}
	}
}

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
func mshrCycle(tab *lineTable[*mshrEntry], s *System, e *mshrEntry, base int) {
	for i := 0; i < 16; i++ {
		tab.put(s.lineKey(addrmap.Addr((base+i)*64), 7), e)
	}
	for i := 0; i < 16; i++ {
		if _, ok := tab.get(s.lineKey(addrmap.Addr((base+i)*64), 7)); !ok {
			panic("entry lost")
		}
	}
	for i := 0; i < 16; i++ {
		tab.del(s.lineKey(addrmap.Addr((base+i)*64), 7))
	}
}

// TestLineTableZeroAllocs pins the table allocation-free once it has
// grown to its working size.
func TestLineTableZeroAllocs(t *testing.T) {
	s := &System{keyShift: 6}
	var tab lineTable[*mshrEntry]
	e := &mshrEntry{}
	base := 0
	mshrCycle(&tab, s, e, base)
	if allocs := testing.AllocsPerRun(1000, func() { base += 16; mshrCycle(&tab, s, e, base) }); allocs != 0 {
		t.Fatalf("an allocate/lookup/free round allocates %v times, want 0", allocs)
	}
}

// BenchmarkMSHRTable measures MSHR allocate, lookup and free: one op is
// one mshrCycle of 16 entries, so ns/op / 48 is the cost of one table
// operation.
func BenchmarkMSHRTable(b *testing.B) {
	s := &System{keyShift: 6}
	var tab lineTable[*mshrEntry]
	e := &mshrEntry{}
	mshrCycle(&tab, s, e, 0) // grow the table to its working size
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mshrCycle(&tab, s, e, i*16)
	}
}
