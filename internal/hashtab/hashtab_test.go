package hashtab

import (
	"testing"

	"gsdram/internal/sim"
)

// lineKey packs (line, pattern) the way memsys packs its MSHR and
// prefetch-mark keys: the line above 16 pattern bits and a set low bit.
func lineKey(line, p uint64) uint64 { return line<<17 | p<<1 | 1 }

// TestTableMatchesMap drives a Table and a Go map through the same
// random puts, gets and deletes and checks they agree after every step.
// The keys come from a small pool of packed (line, pattern) keys, so
// probe runs form, wrap around and are cut by deletions. Every few
// thousand steps a Clone is taken and must hold exactly the map's
// entries, and later steps on the original must not reach it.
func TestTableMatchesMap(t *testing.T) {
	rng := sim.NewRand(9)
	var pool []uint64
	for line := uint64(0); line < 48; line++ {
		for _, p := range []uint64{0, 3, 7} {
			pool = append(pool, lineKey(line, p))
		}
	}
	var tab Table[int]
	ref := map[uint64]int{}
	var snap Table[int]
	var snapRef map[uint64]int
	for step := 0; step < 200000; step++ {
		k := pool[rng.Intn(len(pool))]
		switch rng.Intn(3) {
		case 0:
			tab.Put(k, step)
			ref[k] = step
		case 1:
			got, gok := tab.Del(k)
			want, wok := ref[k]
			delete(ref, k)
			if got != want || gok != wok {
				t.Fatalf("step %d: Del(%#x) = (%d, %v), map (%d, %v)", step, k, got, gok, want, wok)
			}
		default:
			got, gok := tab.Get(k)
			want, wok := ref[k]
			if got != want || gok != wok {
				t.Fatalf("step %d: Get(%#x) = (%d, %v), map (%d, %v)", step, k, got, gok, want, wok)
			}
		}
		if tab.Len() != len(ref) {
			t.Fatalf("step %d: Len %d, map %d", step, tab.Len(), len(ref))
		}
		if step%5000 == 0 {
			if snapRef != nil {
				checkEqual(t, &snap, snapRef)
			}
			snap, snapRef = tab.Clone(), map[uint64]int{}
			for k, v := range ref {
				snapRef[k] = v
			}
		}
	}
	checkEqual(t, &tab, ref)
	checkEqual(t, &snap, snapRef)
}

// checkEqual fails unless tab holds exactly ref's entries, through both
// Get and Range.
func checkEqual(t *testing.T, tab *Table[int], ref map[uint64]int) {
	t.Helper()
	if tab.Len() != len(ref) {
		t.Fatalf("Len %d, map %d", tab.Len(), len(ref))
	}
	for k, want := range ref {
		if got, ok := tab.Get(k); !ok || got != want {
			t.Fatalf("Get(%#x) = (%d, %v), map (%d, true)", k, got, ok, want)
		}
	}
	seen := 0
	tab.Range(func(k uint64, v int) {
		if want, ok := ref[k]; !ok || v != want {
			t.Fatalf("Range yields (%#x, %d), map (%d, %v)", k, v, want, ok)
		}
		seen++
	})
	if seen != len(ref) {
		t.Fatalf("Range yields %d entries, map %d", seen, len(ref))
	}
}

// TestReserveHoldsWithoutGrowing: a reserved table takes its entries
// without resizing, and keeps the ones it already held.
func TestReserveHoldsWithoutGrowing(t *testing.T) {
	var tab Table[uint64]
	tab.Put(lineKey(1, 0), 1)
	tab.Reserve(1000)
	if v, ok := tab.Get(lineKey(1, 0)); !ok || v != 1 {
		t.Fatalf("Reserve lost an entry: (%d, %v)", v, ok)
	}
	slots := len(tab.keys)
	for k := uint64(2); k <= 1000; k++ {
		tab.Put(lineKey(k, 0), k)
	}
	if len(tab.keys) != slots {
		t.Fatalf("a table reserved for 1000 entries resized from %d to %d slots", slots, len(tab.keys))
	}
}

// TestPutRejectsZeroKey: key 0 marks an empty slot, so storing it would
// corrupt the table; Put panics instead.
func TestPutRejectsZeroKey(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Put accepted key 0")
		}
	}()
	var tab Table[int]
	tab.Put(0, 1)
}

// cycle is one round of an outstanding-miss table's traffic: 16 misses
// insert entries, a second access to each finds its entry (an MSHR
// coalesce), and the fills remove them.
func cycle(tab *Table[*int], e *int, base uint64) {
	for i := uint64(0); i < 16; i++ {
		tab.Put(lineKey(base+i, 7), e)
	}
	for i := uint64(0); i < 16; i++ {
		if _, ok := tab.Get(lineKey(base+i, 7)); !ok {
			panic("entry lost")
		}
	}
	for i := uint64(0); i < 16; i++ {
		tab.Del(lineKey(base+i, 7))
	}
}

// TestTableZeroAllocs pins the table allocation-free once it has grown
// to its working size.
func TestTableZeroAllocs(t *testing.T) {
	var tab Table[*int]
	e := new(int)
	base := uint64(0)
	cycle(&tab, e, base)
	if allocs := testing.AllocsPerRun(1000, func() { base += 16; cycle(&tab, e, base) }); allocs != 0 {
		t.Fatalf("an insert/lookup/remove round allocates %v times, want 0", allocs)
	}
}
