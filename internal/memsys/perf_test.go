package memsys

import (
	"testing"

	"gsdram/internal/addrmap"
	"gsdram/internal/sim"
)

// BenchmarkAccessMissBurst measures the detailed miss path end to end.
// One op is a burst of 16 loads to consecutive lines that miss the L1
// and the L2, each allocating an MSHR, a second load to each line that
// coalesces onto its entry, and the queue run dry, which fetches the
// lines, fills both levels and frees the entries. The stream wraps at
// 64 MB, 32 times the L2, so every burst misses.
func BenchmarkAccessMissBurst(b *testing.B) {
	q := &sim.EventQueue{}
	s, err := New(DefaultConfig(1), q)
	if err != nil {
		b.Fatal(err)
	}
	const wrap = 64 << 20
	var next addrmap.Addr
	onDone := func(sim.Cycle) {}
	issue := func(now sim.Cycle) {
		for i := 0; i < 16; i++ {
			a := Access{Addr: (next + addrmap.Addr(i*64)) % wrap, PC: 0x40}
			s.Access(now, a, onDone)
			s.Access(now, a, onDone)
		}
		next += 16 * 64
	}
	burst := func() {
		q.Schedule(q.Now()+1000, issue)
		q.Run()
	}
	for i := 0; i < 4; i++ {
		burst() // settle the pools
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		burst()
	}
}
