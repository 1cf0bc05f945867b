package cache

import (
	"reflect"
	"sort"
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
	dirty, marked bool
	stamp         uint64
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

// use stamps e as the most recently used line.
func (r *refCache) use(e *refLine) {
	r.clock++
	e.stamp = r.clock
}

func (r *refCache) lookup(a addrmap.Addr, p gsdram.Pattern, dirty bool) bool {
	e, ok := r.entries[refKey{a, p}]
	if ok {
		r.use(e)
		e.dirty = e.dirty || dirty
	}
	return ok
}

// fill inserts (a, p) or refreshes it, and returns the line it evicted:
// the set's least recently used, when the set is full.
func (r *refCache) fill(a addrmap.Addr, p gsdram.Pattern, dirty bool) (Line, bool) {
	key := refKey{a, p}
	if e, ok := r.entries[key]; ok {
		r.use(e)
		e.dirty = e.dirty || dirty
		return Line{}, false
	}
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
	var ev Line
	has := count >= r.ways
	if has {
		v := r.entries[victim]
		ev = Line{Addr: victim.addr, Pattern: victim.patt, Dirty: v.dirty, Marked: v.marked}
		delete(r.entries, victim)
	}
	e := &refLine{dirty: dirty}
	r.use(e)
	r.entries[key] = e
	return ev, has
}

func (r *refCache) invalidate(a addrmap.Addr, p gsdram.Pattern) (present, dirty bool) {
	e, ok := r.entries[refKey{a, p}]
	if !ok {
		return false, false
	}
	delete(r.entries, refKey{a, p})
	return true, e.dirty
}

func (r *refCache) resident(a addrmap.Addr, p gsdram.Pattern) (bool, bool) {
	e, ok := r.entries[refKey{a, p}]
	if !ok {
		return false, false
	}
	return true, e.dirty
}

func (r *refCache) cleanLine(a addrmap.Addr, p gsdram.Pattern) bool {
	e, ok := r.entries[refKey{a, p}]
	if !ok || !e.dirty {
		return false
	}
	e.dirty = false
	return true
}

func (r *refCache) mark(a addrmap.Addr, p gsdram.Pattern) {
	if e, ok := r.entries[refKey{a, p}]; ok {
		e.marked = true
	}
}

func (r *refCache) unmark(a addrmap.Addr, p gsdram.Pattern) bool {
	e, ok := r.entries[refKey{a, p}]
	if !ok || !e.marked {
		return false
	}
	e.marked = false
	return true
}

// lines lists the resident lines in Cache.Lines's order.
func (r *refCache) lines() []Line {
	var lines []Line
	for k, e := range r.entries {
		lines = append(lines, Line{Addr: k.addr, Pattern: k.patt, Dirty: e.dirty, Marked: e.marked})
	}
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].Addr != lines[j].Addr {
			return lines[i].Addr < lines[j].Addr
		}
		return lines[i].Pattern < lines[j].Pattern
	})
	return lines
}

// TestCacheMatchesReferenceModel replays a long random trace of every
// operation on the production cache and the reference model, at 1, 2, 4
// and 8 ways, and checks that every return value agrees after every step,
// that every fill evicts the reference's LRU line with its dirty bit and
// prefetch mark, and that the resident lines agree every 1000 steps. Load
// misses fill with Fill and store misses with FillNew.
func TestCacheMatchesReferenceModel(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 8} {
		cfg := Config{Name: "ref", SizeBytes: 4096, Ways: ways, LineBytes: 64}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefCache(cfg)
		rng := sim.NewRand(2024)
		checkFill := func(step int, a addrmap.Addr, p gsdram.Pattern, ev Line, has bool, wantEv Line, wantHas bool) {
			t.Helper()
			if has != wantHas || ev != wantEv {
				t.Fatalf("%d ways, step %d: fill(%#x,%d) evicted %+v (%v), reference %+v (%v)", ways, step, uint64(a), p, ev, has, wantEv, wantHas)
			}
		}

		const steps = 50000
		// The pool is the cache's capacity, 64 lines, so each set sees
		// as many lines as it has ways, in each of two patterns.
		addrPool := cfg.SizeBytes / cfg.LineBytes
		for i := 0; i < steps; i++ {
			a := addrmap.Addr(rng.Intn(addrPool) * cfg.LineBytes)
			p := gsdram.Pattern(rng.Intn(2) * 7) // pattern 0 or 7
			switch rng.Intn(8) {
			case 0: // load: lookup, Fill on a miss
				got := c.Lookup(a, p, false)
				if want := ref.lookup(a, p, false); got != want {
					t.Fatalf("%d ways, step %d: lookup(%#x,%d) = %v, ref %v", ways, i, uint64(a), p, got, want)
				}
				if !got {
					ev, has := c.Fill(a, p, false)
					wantEv, wantHas := ref.fill(a, p, false)
					checkFill(i, a, p, ev, has, wantEv, wantHas)
				}
			case 1: // store: lookup, FillNew on a miss
				got := c.Lookup(a, p, true)
				if want := ref.lookup(a, p, true); got != want {
					t.Fatalf("%d ways, step %d: store-lookup(%#x,%d) = %v, ref %v", ways, i, uint64(a), p, got, want)
				}
				if !got {
					// The lookup just missed, so the fill may skip the
					// presence check.
					ev, has := c.FillNew(a, p, true)
					wantEv, wantHas := ref.fill(a, p, true)
					checkFill(i, a, p, ev, has, wantEv, wantHas)
				}
			case 2: // fill or refresh, as a prefetch fill does, then mark
				dirty := rng.Intn(2) == 0
				ev, has := c.Fill(a, p, dirty)
				wantEv, wantHas := ref.fill(a, p, dirty)
				checkFill(i, a, p, ev, has, wantEv, wantHas)
				c.Mark(a, p)
				ref.mark(a, p)
			case 3:
				gp, gd := c.Invalidate(a, p)
				wp, wd := ref.invalidate(a, p)
				if gp != wp || gd != wd {
					t.Fatalf("%d ways, step %d: invalidate(%#x,%d) = (%v,%v), ref (%v,%v)", ways, i, uint64(a), p, gp, gd, wp, wd)
				}
			case 4:
				gp, gd := c.Probe(a, p)
				wp, wd := ref.resident(a, p)
				if gp != wp || gd != wd {
					t.Fatalf("%d ways, step %d: probe(%#x,%d) = (%v,%v), ref (%v,%v)", ways, i, uint64(a), p, gp, gd, wp, wd)
				}
			case 5:
				if got, want := c.CleanLine(a, p), ref.cleanLine(a, p); got != want {
					t.Fatalf("%d ways, step %d: CleanLine(%#x,%d) = %v, ref %v", ways, i, uint64(a), p, got, want)
				}
			case 6:
				c.Mark(a, p)
				ref.mark(a, p)
			case 7:
				if got, want := c.Unmark(a, p), ref.unmark(a, p); got != want {
					t.Fatalf("%d ways, step %d: Unmark(%#x,%d) = %v, ref %v", ways, i, uint64(a), p, got, want)
				}
			}
			if i%1000 == 999 {
				if got, want := c.Lines(), ref.lines(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%d ways, step %d: resident lines\n%+v\nreference\n%+v", ways, i, got, want)
				}
			}
		}
	}
}
