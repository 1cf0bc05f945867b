package cache

import (
	"testing"

	"gsdram/internal/addrmap"
	"gsdram/internal/gsdram"
	"gsdram/internal/sim"
)

// refCache is an obviously-correct LRU model: a map plus an access
// counter, used to cross-check the production cache on random traces.
type refCache struct {
	ways    int
	sets    int
	lineSz  int
	clock   uint64
	entries map[refKey]*refLine
}

type refKey struct {
	addr addrmap.Addr
	patt gsdram.Pattern
}

type refLine struct {
	dirty bool
	stamp uint64
}

func newRefCache(cfg Config) *refCache {
	lines := cfg.SizeBytes / cfg.LineBytes
	return &refCache{
		ways:    cfg.Ways,
		sets:    lines / cfg.Ways,
		lineSz:  cfg.LineBytes,
		entries: make(map[refKey]*refLine),
	}
}

func (r *refCache) setIndex(a addrmap.Addr) uint64 {
	return uint64(a) / uint64(r.lineSz) % uint64(r.sets)
}

func (r *refCache) lookup(a addrmap.Addr, p gsdram.Pattern, dirty bool) bool {
	r.clock++
	if e, ok := r.entries[refKey{a, p}]; ok {
		e.stamp = r.clock
		e.dirty = e.dirty || dirty
		return true
	}
	return false
}

func (r *refCache) fill(a addrmap.Addr, p gsdram.Pattern, dirty bool) {
	r.clock++
	key := refKey{a, p}
	if e, ok := r.entries[key]; ok {
		e.stamp = r.clock
		e.dirty = e.dirty || dirty
		return
	}
	// Evict LRU within the set if full.
	set := r.setIndex(a)
	var victim refKey
	count := 0
	var oldest uint64 = ^uint64(0)
	for k, e := range r.entries {
		if r.setIndex(k.addr) != set {
			continue
		}
		count++
		if e.stamp < oldest {
			oldest = e.stamp
			victim = k
		}
	}
	if count >= r.ways {
		delete(r.entries, victim)
	}
	r.entries[key] = &refLine{dirty: dirty, stamp: r.clock}
}

func (r *refCache) invalidate(a addrmap.Addr, p gsdram.Pattern) {
	delete(r.entries, refKey{a, p})
}

func (r *refCache) resident(a addrmap.Addr, p gsdram.Pattern) (bool, bool) {
	e, ok := r.entries[refKey{a, p}]
	if !ok {
		return false, false
	}
	return true, e.dirty
}

// TestCacheMatchesReferenceModel replays a long random trace of lookups,
// fills and invalidations on both the production cache and the reference
// model, and checks presence and dirtiness agree after every step. Load
// misses fill with Fill and store misses with FillNew.
func TestCacheMatchesReferenceModel(t *testing.T) {
	cfg := Config{Name: "ref", SizeBytes: 4096, Ways: 4, LineBytes: 64}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefCache(cfg)
	rng := sim.NewRand(2024)

	const steps = 50000
	addrPool := 64 // lines, 4x the cache capacity
	for i := 0; i < steps; i++ {
		a := addrmap.Addr(rng.Intn(addrPool) * 64)
		p := gsdram.Pattern(rng.Intn(2) * 7) // pattern 0 or 7
		switch rng.Intn(4) {
		case 0: // lookup (load)
			got := c.Lookup(a, p, false)
			want := ref.lookup(a, p, false)
			if got != want {
				t.Fatalf("step %d: lookup(%#x,%d) = %v, ref %v", i, uint64(a), p, got, want)
			}
			if !got {
				c.Fill(a, p, false)
				ref.fill(a, p, false)
			}
		case 1: // lookup (store)
			got := c.Lookup(a, p, true)
			want := ref.lookup(a, p, true)
			if got != want {
				t.Fatalf("step %d: store-lookup mismatch", i)
			}
			if !got {
				// The lookup just missed, so the fill may skip the
				// presence scan.
				c.FillNew(a, p, true)
				ref.fill(a, p, true)
			}
		case 2: // invalidate
			c.Invalidate(a, p)
			ref.invalidate(a, p)
		case 3: // probe compare
			gp, gd := c.Probe(a, p)
			wp, wd := ref.resident(a, p)
			if gp != wp || (gp && gd != wd) {
				t.Fatalf("step %d: probe(%#x,%d) = (%v,%v), ref (%v,%v)", i, uint64(a), p, gp, gd, wp, wd)
			}
		}
	}
	// Final full-state comparison.
	if got, want := len(c.Lines()), len(ref.entries); got != want {
		t.Fatalf("resident lines %d, ref %d", got, want)
	}
}
