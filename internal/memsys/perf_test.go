package memsys

import (
	"fmt"
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
			s.Access(now, &a, onDone)
			s.Access(now, &a, onDone)
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

// BenchmarkWarmAccess measures the functional fast-forward per access,
// with the prefetcher off and on. One op is one WarmAccess from a fixed
// pre-generated mix of 65536 accesses: three in four are loads and
// stores (one in three a store) to random words of a 64 MB shuffled
// region with alternate pattern 7, so stores drop overlapping gathered
// lines and misses flush them; the fourth continues a sequential load
// stream from one PC, which the prefetcher follows. The mix touches
// 4 MB of lines in a cycle, twice the L2, so nearly every access misses
// it.
func BenchmarkWarmAccess(b *testing.B) {
	const n, wrap = 1 << 16, 64 << 20
	r := sim.NewRand(1)
	mix := make([]Access, n)
	next := addrmap.Addr(wrap)
	for i := range mix {
		if i%4 == 0 {
			mix[i] = Access{Addr: next, PC: 0x40}
			next += 64
			continue
		}
		mix[i] = Access{
			Addr:       addrmap.Addr(r.Uint64n(wrap/8) * 8),
			Write:      r.Intn(3) == 0,
			PC:         0x80,
			Shuffled:   true,
			AltPattern: 7,
		}
	}
	for _, pf := range []bool{false, true} {
		b.Run(fmt.Sprintf("prefetch=%v", pf), func(b *testing.B) {
			cfg := DefaultConfig(1)
			cfg.EnablePrefetch = pf
			s, err := New(cfg, &sim.EventQueue{})
			if err != nil {
				b.Fatal(err)
			}
			for _, a := range mix {
				s.WarmAccess(a) // fill the caches and tables
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.WarmAccess(mix[i%n])
			}
		})
	}
}
