package memsys

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"gsdram/internal/addrmap"
	"gsdram/internal/autopatt"
	"gsdram/internal/cache"
	"gsdram/internal/prefetch"
	"gsdram/internal/sim"
)

// twinConfig is a hierarchy small enough that a few thousand accesses
// over a handful of rows evict constantly: 1 KB 2-way L1s and a 16 KB
// 2-way L2. The L2's 128 sets keep the degree-4 prefetch candidates of
// the mix's streams (strides of 1 and 16 lines) out of the demand line's
// set. Where a candidate shares it, the two paths fill the set in
// different orders: the warm path fills candidates before the demand
// line, the detailed path when the fetches complete, in the controller's
// order. The LRU order then differs and later evictions can diverge.
func twinConfig(cores int, auto, pf bool) func(*Config) {
	return func(c *Config) {
		c.Cores = cores
		c.L1 = cache.Config{Name: "L1", SizeBytes: 1 << 10, Ways: 2, LineBytes: 64}
		c.L2 = cache.Config{Name: "L2", SizeBytes: 16 << 10, Ways: 2, LineBytes: 64}
		c.AutoPattern = auto
		c.EnablePrefetch = pf
	}
}

// twinAccess draws the next access of the equivalence test's mix. One
// access in three continues one of its core's two sequential load
// streams (from one PC each, so the prefetcher issues; the first stream
// is over shuffled data, so promotion can redirect it). The rest are
// loads and stores to random words of six rows, four of them shuffled
// with alternate pattern 7, where one access in three is patterned.
func twinAccess(r *sim.Rand, cores int, stream []addrmap.Addr) Access {
	core := r.Intn(cores)
	if r.Intn(3) == 0 {
		i := 2*core + r.Intn(2)
		a := Access{Core: core, Addr: stream[i], PC: 0x1000 + uint64(i)}
		if i%2 == 0 {
			a.Shuffled, a.AltPattern = true, 7
		}
		stream[i] += 64
		return a
	}
	row := r.Intn(6)
	a := Access{
		Core:  core,
		Addr:  addr(r.Intn(2), row, r.Intn(128)) + addrmap.Addr(8*r.Intn(8)),
		Write: r.Intn(5) < 2,
		PC:    0x100 + uint64(r.Intn(4)),
	}
	if row < 4 {
		a.Shuffled, a.AltPattern = true, 7
		if r.Intn(3) == 0 {
			a.Pattern = 7
		}
	}
	return a
}

// counterState is everything a system counts.
type counterState struct {
	Mem  Stats
	L1   []cache.Stats
	L2   cache.Stats
	Pref prefetch.Stats
	Auto autopatt.Stats
}

func countersOf(s *System) counterState {
	l1, l2 := s.CacheStats()
	return counterState{s.Stats(), l1, l2, s.PrefetchStats(), s.AutoPattStats()}
}

// TestWarmAccessMatchesDetailed pins the equivalence the sampler's
// fast-forward rests on: WarmAccess leaves the hierarchy in the state a
// detailed Access leaves it in once its fetches complete. Twin systems
// run one access sequence, one through Access with the queue drained
// after every access, the other through WarmAccess. After each access
// every cache must hold the same lines with the same dirty bits and
// prefetch marks. Each twin gets its own copy of the access, so each
// makes its own promotion decision, and Access must leave the caller's
// copy as it was. The warm twin runs in Uncounted segments, as the
// sampler runs it, and must count nothing.
func TestWarmAccessMatchesDetailed(t *testing.T) {
	const seqs, accesses, segment = 2, 2000, 100
	for _, cores := range []int{1, 2} {
		for _, auto := range []bool{false, true} {
			for _, pf := range []bool{false, true} {
				name := fmt.Sprintf("cores=%d/auto=%v/prefetch=%v", cores, auto, pf)
				t.Run(name, func(t *testing.T) {
					for seed := uint64(1); seed <= seqs; seed++ {
						testWarmTwin(t, seed, cores, auto, pf, accesses, segment)
					}
				})
			}
		}
	}
}

func testWarmTwin(t *testing.T, seed uint64, cores int, auto, pf bool, accesses, segment int) {
	t.Helper()
	det := newHarness(t, cores, twinConfig(cores, auto, pf))
	warm := newHarness(t, cores, twinConfig(cores, auto, pf))
	zero := countersOf(warm.s)
	stream := make([]addrmap.Addr, 2*cores)
	for i := range stream {
		stream[i] = addr(2+i, 10, 0)
	}
	r := sim.NewRand(seed)
	onDone := func(sim.Cycle) {}
	for issued := 0; issued < accesses; {
		warm.s.Uncounted(func() {
			for end := issued + segment; issued < end; issued++ {
				a := twinAccess(r, cores, stream)
				d := a
				det.s.Access(det.q.Now(), &d, onDone)
				if d != a {
					t.Fatalf("seed %d access %d: Access rewrote the caller's %+v to %+v", seed, issued, a, d)
				}
				det.q.Run()
				warm.s.WarmAccess(a)

				dl1, dl2 := det.s.SnapshotCaches()
				wl1, wl2 := warm.s.SnapshotCaches()
				if !slices.EqualFunc(dl1, wl1, slices.Equal) || !slices.Equal(dl2, wl2) {
					t.Fatalf("seed %d access %d %+v: caches differ\ndetailed L1s %v\nwarm     L1s %v\ndetailed L2 %v\nwarm     L2 %v",
						seed, issued, a, dl1, wl1, dl2, wl2)
				}
			}
		})
		if got := countersOf(warm.s); !reflect.DeepEqual(got, zero) {
			t.Fatalf("seed %d: after %d uncounted warm accesses the counters read %+v, want %+v", seed, issued, got, zero)
		}
	}
	if pf && det.s.Stats().PrefIssued == 0 {
		t.Errorf("seed %d: the prefetcher issued nothing; the mix does not exercise it", seed)
	}
	if auto && det.s.AutoPattStats().Promoted == 0 {
		t.Errorf("seed %d: nothing was promoted; the mix does not exercise promotion", seed)
	}
}
