package machine

import (
	"runtime"
	"testing"

	"gsdram/internal/addrmap"
	"gsdram/internal/gsdram"
	"gsdram/internal/sim"
)

// Cost pins for the functional store: a machine costs what its runs
// write, not what its organisation could hold.

// allocBytes returns the heap bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// populatedDefault returns a Table 1 machine holding a pattern-7 table of
// tuples 64-byte tuples, every line written, as an imdb template holds
// one, and the table's base.
func populatedDefault(tb testing.TB, tuples int) (*Machine, addrmap.Addr) {
	tb.Helper()
	m, err := Default()
	if err != nil {
		tb.Fatal(err)
	}
	base, err := m.AS.PattMalloc(tuples*64, 7)
	if err != nil {
		tb.Fatal(err)
	}
	line := make([]uint64, m.GS.Chips)
	for t := 0; t < tuples; t++ {
		for f := range line {
			line[f] = uint64(t)*10 + uint64(f)
		}
		if err := m.WriteLine(base+addrmap.Addr(t*64), gsdram.DefaultPattern, line); err != nil {
			tb.Fatal(err)
		}
	}
	return m, base
}

// TestNewAllocatesUnder1MB: an empty Table 1 machine costs its gather
// plans and a row directory, not a slot per DRAM row (262144 rows).
func TestNewAllocatesUnder1MB(t *testing.T) {
	var m *Machine
	n := allocBytes(func() {
		var err error
		if m, err = New(addrmap.Default, gsdram.GS844); err != nil {
			t.Fatal(err)
		}
	})
	if n >= 1<<20 {
		t.Fatalf("machine.New(addrmap.Default, gsdram.GS844) allocates %d bytes, want under 1 MB", n)
	}
	runtime.KeepAlive(m)
}

// TestCloneCostIndependentOfRows: cloning a populated 131072-tuple
// template (1024 written DRAM rows) costs about what cloning a
// 16384-tuple one (128 rows) costs, under 64 KB: no row and no
// per-row table is copied. The rest is the address space's page flags.
func TestCloneCostIndependentOfRows(t *testing.T) {
	for _, tuples := range []int{16384, 131072} {
		tpl, _ := populatedDefault(t, tuples)
		var c *Machine
		if n := allocBytes(func() { c = tpl.Clone() }); n >= 64<<10 {
			t.Fatalf("cloning a %d-tuple template allocates %d bytes, want under 64 KB", tuples, n)
		}
		runtime.KeepAlive(c)
	}
}

// TestCloneFirstWriteCopiesNoRow: after a Clone, the first write on
// either side allocates less than one 8 KB DRAM row, and later writes to
// the same word allocate nothing.
func TestCloneFirstWriteCopiesNoRow(t *testing.T) {
	tpl, base := populatedDefault(t, 16384)
	clone := tpl.Clone()
	for _, m := range []*Machine{clone, tpl} {
		if n := allocBytes(func() {
			if err := m.WriteWord(base+8, 42); err != nil {
				t.Fatal(err)
			}
		}); n >= 8<<10 {
			t.Fatalf("the first write after Clone allocates %d bytes, want under one 8 KB row", n)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if err := m.WriteWord(base+8, 43); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("rewriting a word after Clone allocates %v times, want 0", allocs)
		}
	}
}

// BenchmarkMachineClone measures stamping out one run's machine from a
// populated 131072-tuple template.
func BenchmarkMachineClone(b *testing.B) {
	tpl, _ := populatedDefault(b, 131072)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tpl.Clone()
	}
}

// BenchmarkMachineCloneWrite measures a clone and its first writes: one
// op clones a populated 131072-tuple template and writes 64 words at
// seed-derived fields across the table, as a short transaction run does.
func BenchmarkMachineCloneWrite(b *testing.B) {
	const tuples = 131072
	tpl, base := populatedDefault(b, tuples)
	rng := sim.NewRand(1)
	addrs := make([]addrmap.Addr, 64)
	for i := range addrs {
		addrs[i] = base + addrmap.Addr(8*rng.Intn(8*tuples))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := tpl.Clone()
		for j, a := range addrs {
			if err := m.WriteWord(a, uint64(i+j)); err != nil {
				b.Fatal(err)
			}
		}
	}
}
