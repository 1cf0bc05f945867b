package memsys

import (
	"testing"

	"gsdram/internal/addrmap"
	"gsdram/internal/gsdram"
	"gsdram/internal/machine"
	"gsdram/internal/sim"
)

// TestGatherLineMatchesMachine cross-checks the controller's closed-form
// gathered-line computation against the general machine.GatherAddr search.
func TestGatherLineMatchesMachine(t *testing.T) {
	h := newHarness(t, 1, nil)
	m, err := machine.Default()
	if err != nil {
		t.Fatal(err)
	}
	base, err := m.AS.PattMalloc(1<<16, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{0, 8, 64, 72, 512, 1000 * 8, 8191 * 8} {
		a := base + addrmap.Addr(off)
		want, _, err := m.GatherAddr(a, 7)
		if err != nil {
			t.Fatal(err)
		}
		if got := h.s.gatherLine(a, 7); got != want {
			t.Fatalf("gatherLine(+%d) = %#x, want %#x", off, uint64(got), uint64(want))
		}
	}
}

// TestTransparentPromotionReducesFetches runs a plain-load stride-64 scan
// over a shuffled page with promotion on and off: promotion must approach
// the one-fetch-per-8-loads behaviour of explicit pattloads.
func TestTransparentPromotionReducesFetches(t *testing.T) {
	const loads = 256
	run := func(auto bool) uint64 {
		h := newHarness(t, 1, func(c *Config) { c.AutoPattern = auto })
		for i := 0; i < loads; i++ {
			h.access(sim.Cycle(i*512), Access{
				Core:       0,
				Addr:       addr(0, 40, 0) + addrmap.Addr(i*64), // field 0 of tuple i
				PC:         0xABC,
				Shuffled:   true,
				AltPattern: 7,
			})
		}
		h.q.Run()
		return h.s.Stats().DRAMReads
	}
	off := run(false)
	on := run(true)
	if off != loads {
		t.Fatalf("without promotion: %d fetches, want %d", off, loads)
	}
	// Warmup misses plus ~loads/8 gathers.
	if on > loads/4 {
		t.Fatalf("with promotion: %d fetches, want close to %d", on, loads/8)
	}
}

// TestPromotionRespectsPageRestriction: loads over unshuffled data (or
// with a different page pattern) must never be promoted.
func TestPromotionRespectsPageRestriction(t *testing.T) {
	h := newHarness(t, 1, func(c *Config) { c.AutoPattern = true })
	for i := 0; i < 64; i++ {
		h.access(sim.Cycle(i*512), Access{
			Core: 0,
			Addr: addr(0, 41, 0) + addrmap.Addr(i*64),
			PC:   0xDEF,
			// Not shuffled: plain malloc'd data.
		})
	}
	h.q.Run()
	if got := h.s.AutoPattStats().Promoted; got != 0 {
		t.Fatalf("%d promotions on unshuffled data", got)
	}

	// Page whose alternate pattern (1) does not match the detected
	// stride-8 pattern (7): no promotion either.
	h2 := newHarness(t, 1, func(c *Config) { c.AutoPattern = true })
	for i := 0; i < 64; i++ {
		h2.access(sim.Cycle(i*512), Access{
			Core:       0,
			Addr:       addr(0, 42, 0) + addrmap.Addr(i*64),
			PC:         0xDEF,
			Shuffled:   true,
			AltPattern: 1,
		})
	}
	h2.q.Run()
	if got := h2.s.AutoPattStats().Promoted; got != 0 {
		t.Fatalf("%d promotions despite pattern mismatch", got)
	}
}

// TestPromotionPreservesData: functional addressing — the gathered line a
// promoted load is redirected to must actually contain the requested word.
func TestPromotionPreservesData(t *testing.T) {
	m, err := machine.Default()
	if err != nil {
		t.Fatal(err)
	}
	base, err := m.AS.PattMalloc(64*64, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64*8; i++ {
		if err := m.WriteWord(base+addrmap.Addr(i*8), uint64(7000+i)); err != nil {
			t.Fatal(err)
		}
	}
	h := newHarness(t, 1, nil)
	line := make([]uint64, 8)
	for tup := 0; tup < 64; tup++ {
		target := base + addrmap.Addr(tup*64) // field 0 of tuple tup
		la := h.s.gatherLine(target, 7)
		if err := m.ReadLine(la, 7, line); err != nil {
			t.Fatal(err)
		}
		want, err := m.ReadWord(target)
		if err != nil {
			t.Fatal(err)
		}
		if line[tup%8] != want {
			t.Fatalf("tuple %d: gathered line word %d = %d, want %d", tup, tup%8, line[tup%8], want)
		}
	}
}

func TestGatherModeString(t *testing.T) {
	if GatherInDRAM.String() != "GS-DRAM (in-DRAM gather)" {
		t.Error("GatherInDRAM name wrong")
	}
	if GatherAtController.String() != "controller gather (Impulse-like)" {
		t.Error("GatherAtController name wrong")
	}
	if GatherMode(9).String() != "unknown" {
		t.Error("unknown mode name wrong")
	}
}

// TestControllerGatherMode exercises the Impulse-like path directly:
// one patterned demand fetch becomes 8 donor line reads, and the fill
// completes only after the last donor.
func TestControllerGatherMode(t *testing.T) {
	h := newHarness(t, 1, func(c *Config) { c.Gather = GatherAtController })
	done := h.access(0, Access{Core: 0, Addr: addr(0, 10, 0), Pattern: 7, Shuffled: true, AltPattern: 7})
	h.q.Run()
	if *done == 0 {
		t.Fatal("gather never completed")
	}
	if got := h.s.MemStats().ReadsServed; got != 8 {
		t.Fatalf("controller gather issued %d DRAM reads, want 8", got)
	}
	// A second access to the same gathered line hits the cache.
	d2 := h.access(*done+100, Access{Core: 0, Addr: addr(0, 10, 0), Pattern: 7, Shuffled: true, AltPattern: 7})
	h.q.Run()
	if got := h.s.MemStats().ReadsServed; got != 8 {
		t.Fatalf("cached gather refetched: %d reads", got)
	}
	_ = d2
}

// TestControllerGatherPrefetch: prefetched patterned lines also go
// through the donor path.
func TestControllerGatherPrefetch(t *testing.T) {
	h := newHarness(t, 1, func(c *Config) {
		c.Gather = GatherAtController
		c.EnablePrefetch = true
	})
	// A strided pattern-7 stream (512 B apart), long enough to train.
	for i := 0; i < 16; i++ {
		h.access(sim.Cycle(i*2000), Access{
			Core: 0, Addr: addr(0, 20, 0) + addrmap.Addr(i*512),
			Pattern: 7, Shuffled: true, AltPattern: 7, PC: 0x77,
		})
	}
	h.q.Run()
	s := h.s.Stats()
	if s.PrefIssued == 0 {
		t.Fatal("no prefetches issued")
	}
	// Every fetch (demand or prefetch) costs 8 donor reads.
	reads := h.s.MemStats().ReadsServed
	fetches := s.DRAMReads + s.PrefIssued
	if reads != fetches*8 {
		t.Fatalf("reads %d != 8 x fetches %d", reads, fetches)
	}
}

// TestOverlapLinesMatchesBruteForce cross-checks the overlap formula used
// for pattern coherence against a brute-force set intersection over
// GatherIndices: the other-pattern lines that share any word with a
// gathered line must be exactly the ones the formula produces.
func TestOverlapLinesMatchesBruteForce(t *testing.T) {
	h := newHarness(t, 1, nil)
	p := h.s.cfg.GS
	spec := h.s.cfg.Mem.Spec
	for patt := 1; patt <= int(p.MaxPattern()); patt++ {
		for col := 0; col < 16; col++ {
			line := spec.Compose(addrmap.Loc{Bank: 2, Row: 7, Col: col})
			got, other := h.s.overlapLines(line, &Access{Pattern: gsdram.Pattern(patt)})
			if other != gsdram.DefaultPattern {
				t.Fatalf("other pattern = %d, want 0", other)
			}
			gotSet := map[addrmap.Addr]bool{}
			for _, a := range got {
				gotSet[a] = true
			}
			// Brute force: default line c' overlaps iff its word set
			// intersects the gather's word set.
			want := map[addrmap.Addr]bool{}
			gather := map[int]bool{}
			for _, l := range p.GatherIndices(gsdram.Pattern(patt), col) {
				gather[l] = true
			}
			for c := 0; c < spec.Cols; c++ {
				for _, l := range p.GatherIndices(gsdram.DefaultPattern, c) {
					if gather[l] {
						want[spec.Compose(addrmap.Loc{Bank: 2, Row: 7, Col: c})] = true
						break
					}
				}
			}
			if len(want) != len(gotSet) {
				t.Fatalf("patt %d col %d: formula gives %d lines, brute force %d", patt, col, len(gotSet), len(want))
			}
			for a := range want {
				if !gotSet[a] {
					t.Fatalf("patt %d col %d: brute-force overlap %#x missing from formula", patt, col, uint64(a))
				}
			}
		}
	}
}

// TestOverlapSymmetric: the overlap set of a default line against the
// page's alternate pattern is the patterned lines covering it — the same
// column set by symmetry of the XOR algebra.
func TestOverlapSymmetric(t *testing.T) {
	h := newHarness(t, 1, nil)
	spec := h.s.cfg.Mem.Spec
	line := spec.Compose(addrmap.Loc{Bank: 1, Row: 3, Col: 12})
	fromDefault, other := h.s.overlapLines(line, &Access{Pattern: 0, AltPattern: 7})
	if other != 7 {
		t.Fatalf("other = %d, want 7", other)
	}
	fromPattern, _ := h.s.overlapLines(line, &Access{Pattern: 7})
	if len(fromDefault) != len(fromPattern) {
		t.Fatalf("asymmetric overlap: %d vs %d", len(fromDefault), len(fromPattern))
	}
	for i := range fromDefault {
		if fromDefault[i] != fromPattern[i] {
			t.Fatalf("overlap sets differ at %d", i)
		}
	}
}

// TestTwoRankSystem runs the hierarchy against a 2-rank spec end to end.
func TestTwoRankSystem(t *testing.T) {
	spec := addrmap.Default
	spec.Ranks = 2
	spec.Rows /= 2
	h := newHarness(t, 1, func(c *Config) { c.Mem.Spec = spec })
	var dones []*sim.Cycle
	for r := 0; r < 2; r++ {
		for i := 0; i < 8; i++ {
			a := spec.Compose(addrmap.Loc{Rank: r, Bank: i % 8, Row: 5, Col: i})
			dones = append(dones, h.access(sim.Cycle(i*10), Access{Core: 0, Addr: a}))
		}
	}
	h.q.Run()
	for i, d := range dones {
		if *d == 0 {
			t.Fatalf("request %d never completed", i)
		}
	}
	if got := h.s.MemStats().ReadsServed; got != 16 {
		t.Fatalf("reads served = %d, want 16", got)
	}
}
