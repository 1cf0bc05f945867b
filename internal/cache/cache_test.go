package cache

import (
	"testing"
	"testing/quick"

	"gsdram/internal/addrmap"
	"gsdram/internal/gsdram"
)

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func small(t *testing.T) *Cache {
	// 4 sets x 2 ways x 64 B = 512 B.
	return mustNew(t, Config{Name: "t", SizeBytes: 512, Ways: 2, LineBytes: 64})
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{Name: "a", SizeBytes: 0, Ways: 8, LineBytes: 64},
		{Name: "b", SizeBytes: 32 << 10, Ways: 0, LineBytes: 64},
		{Name: "c", SizeBytes: 32 << 10, Ways: 8, LineBytes: 48},
		{Name: "d", SizeBytes: 1000, Ways: 8, LineBytes: 64},
		{Name: "e", SizeBytes: 3 * 64 * 8, Ways: 8, LineBytes: 64}, // 3 sets
		{Name: "f", SizeBytes: 16 * 64 * 16, Ways: 16, LineBytes: 64},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if _, err := New(L1Default()); err != nil {
		t.Errorf("L1 default rejected: %v", err)
	}
	if _, err := New(L2Default()); err != nil {
		t.Errorf("L2 default rejected: %v", err)
	}
}

func TestDefaultGeometry(t *testing.T) {
	l1 := L1Default()
	if l1.SizeBytes != 32<<10 || l1.Ways != 8 || l1.LineBytes != 64 {
		t.Errorf("L1 default = %+v", l1)
	}
	l2 := L2Default()
	if l2.SizeBytes != 2<<20 || l2.Ways != 8 || l2.LineBytes != 64 {
		t.Errorf("L2 default = %+v", l2)
	}
}

func TestMissThenHit(t *testing.T) {
	c := small(t)
	a := addrmap.Addr(0x1000)
	if c.Lookup(a, 0, false) {
		t.Fatal("cold lookup hit")
	}
	c.Fill(a, 0, false)
	if !c.Lookup(a, 0, false) {
		t.Fatal("lookup after fill missed")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPatternExtendsTag(t *testing.T) {
	c := small(t)
	a := addrmap.Addr(0x1000)
	c.Fill(a, 0, false)
	// Same address, different pattern: distinct line.
	if c.Lookup(a, 3, false) {
		t.Fatal("pattern 3 lookup hit a pattern 0 line")
	}
	c.Fill(a, 3, false)
	if !c.Lookup(a, 0, false) || !c.Lookup(a, 3, false) {
		t.Fatal("both pattern variants must coexist")
	}
	s := c.Stats()
	if s.PatternFills != 1 || s.PatternHits != 1 {
		t.Fatalf("pattern stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small(t) // 2 ways per set
	// Three lines mapping to the same set (set index bits = addr[7:6]).
	a1 := addrmap.Addr(0x0040)
	a2 := addrmap.Addr(0x0040 + 256)
	a3 := addrmap.Addr(0x0040 + 512)
	c.Fill(a1, 0, false)
	c.Fill(a2, 0, false)
	c.Lookup(a1, 0, false) // a1 recently used; a2 becomes LRU
	ev, has := c.Fill(a3, 0, false)
	if !has || ev.Addr != a2 {
		t.Fatalf("evicted %+v (has=%v), want a2=%#x", ev, has, uint64(a2))
	}
	if !c.Lookup(a1, 0, false) {
		t.Fatal("a1 was evicted despite recent use")
	}
	if c.Lookup(a2, 0, false) {
		t.Fatal("a2 still resident after eviction")
	}
}

func TestDirtyEvictionReported(t *testing.T) {
	c := small(t)
	a1 := addrmap.Addr(0x0040)
	a2 := addrmap.Addr(0x0040 + 256)
	a3 := addrmap.Addr(0x0040 + 512)
	c.Fill(a1, 0, true) // dirty
	c.Fill(a2, 0, false)
	ev, has := c.Fill(a3, 0, false)
	if !has || !ev.Dirty || ev.Addr != a1 {
		t.Fatalf("evicted %+v, want dirty a1", ev)
	}
	if s := c.Stats(); s.DirtyEvicts != 1 {
		t.Fatalf("dirty evicts = %d, want 1", s.DirtyEvicts)
	}
}

func TestStoreHitSetsDirty(t *testing.T) {
	c := small(t)
	a := addrmap.Addr(0x2000)
	c.Fill(a, 0, false)
	c.Lookup(a, 0, true)
	if _, dirty := c.Probe(a, 0); !dirty {
		t.Fatal("store hit did not set dirty bit")
	}
}

func TestProbeDoesNotDisturbState(t *testing.T) {
	c := small(t)
	a := addrmap.Addr(0x3000)
	c.Fill(a, 0, false)
	before := c.Stats()
	if present, _ := c.Probe(a, 0); !present {
		t.Fatal("probe missed resident line")
	}
	if present, _ := c.Probe(a+64, 0); present {
		t.Fatal("probe hit absent line")
	}
	if c.Stats() != before {
		t.Fatal("probe changed statistics")
	}
}

func TestInvalidate(t *testing.T) {
	c := small(t)
	a := addrmap.Addr(0x4000)
	c.Fill(a, 5, true)
	present, dirty := c.Invalidate(a, 5)
	if !present || !dirty {
		t.Fatalf("invalidate = (%v,%v), want (true,true)", present, dirty)
	}
	if ok, _ := c.Probe(a, 5); ok {
		t.Fatal("line survived invalidation")
	}
	if present, _ := c.Invalidate(a, 5); present {
		t.Fatal("double invalidation reported present")
	}
}

func TestCleanLine(t *testing.T) {
	c := small(t)
	a := addrmap.Addr(0x5000)
	c.Fill(a, 0, true)
	c.CleanLine(a, 0)
	if _, dirty := c.Probe(a, 0); dirty {
		t.Fatal("line still dirty after CleanLine")
	}
	c.CleanLine(a+64, 0) // absent line: no-op
}

func TestRefillMergesDirty(t *testing.T) {
	c := small(t)
	a := addrmap.Addr(0x6000)
	c.Fill(a, 0, true)
	if _, has := c.Fill(a, 0, false); has {
		t.Fatal("refill of resident line evicted something")
	}
	if _, dirty := c.Probe(a, 0); !dirty {
		t.Fatal("refill cleared the dirty bit")
	}
}

// TestMarkLivesOnTheLine pins the prefetch mark's life: a refresh of the
// resident line keeps it, the first Unmark takes it, and a line filled
// into a way after an invalidation or an eviction carries none.
func TestMarkLivesOnTheLine(t *testing.T) {
	c := small(t)
	a := addrmap.Addr(0x7000)
	c.Fill(a, 0, false)
	c.Mark(a, 0)
	c.Mark(a+64, 0) // absent line: no-op
	if l := c.Lines(); len(l) != 1 || !l[0].Marked {
		t.Fatalf("lines after Mark: %+v", l)
	}
	c.Fill(a, 0, true)
	if !c.Unmark(a, 0) || c.Unmark(a, 0) {
		t.Fatal("Unmark must take the mark a refresh keeps, once")
	}

	c.Mark(a, 0)
	c.Invalidate(a, 0)
	c.Fill(a, 0, false)
	if c.Unmark(a, 0) {
		t.Fatal("a line refilled after its invalidation inherited the mark")
	}

	// Two more lines of the 2-way set (4 sets of 64 B) evict a; the
	// second takes a's way.
	c.Mark(a, 0)
	c.Fill(a+256, 0, false)
	c.Fill(a+512, 0, false)
	for _, l := range c.Lines() {
		if l.Marked {
			t.Fatalf("%+v inherited the evicted line's mark", l)
		}
	}
}

// TestFingerprintCollisionsInOneSet fills one set of the L2 with lines
// whose keys share a fingerprint byte, so every lookup sees several
// candidate ways: each line must be found, and invalidating one must
// leave the others.
func TestFingerprintCollisionsInOneSet(t *testing.T) {
	c := mustNew(t, L2Default())
	stride := addrmap.Addr(len(c.sets) * c.cfg.LineBytes) // one set's lines
	same := []addrmap.Addr{0}
	want := fingerprint(packKey(c.tag(0), 0))
	for a := stride; len(same) < c.ways; a += stride {
		if fingerprint(packKey(c.tag(a), 0)) == want {
			same = append(same, a)
		}
	}
	for _, a := range same {
		c.Fill(a, 0, false)
	}
	if got := len(c.Lines()); got != c.ways {
		t.Fatalf("%d resident lines after filling %d colliding ones, want %d", got, c.ways, c.ways)
	}
	gone := same[c.ways/2]
	if present, _ := c.Invalidate(gone, 0); !present {
		t.Fatalf("invalidating %#x: not present", uint64(gone))
	}
	for _, a := range same {
		if present, _ := c.Probe(a, 0); present != (a != gone) {
			t.Errorf("after invalidating %#x, probe(%#x) = %v", uint64(gone), uint64(a), present)
		}
	}
}

// TestPackedKeyRange fills the highest line the packed key holds, with
// the widest pattern ID, and reads both back; one line further FillNew
// must refuse the address rather than alias it.
func TestPackedKeyRange(t *testing.T) {
	c := mustNew(t, L1Default())
	top := addrmap.Addr(1<<54 - 64)
	const patt = gsdram.Pattern(1<<16 - 1)
	c.Fill(top, patt, true)
	if got, want := c.Lines(), []Line{{Addr: top, Pattern: patt, Dirty: true}}; len(got) != 1 || got[0] != want[0] {
		t.Fatalf("Lines() = %+v, want %+v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FillNew(1<<54) did not panic")
		}
	}()
	c.FillNew(top+64, 0, false)
}

// TestCapacityNeverExceeded is a property test: after arbitrary fills the
// number of resident lines never exceeds the configured capacity, and
// every filled line is findable until evicted.
func TestCapacityNeverExceeded(t *testing.T) {
	f := func(addrs []uint16, patterns []uint8) bool {
		c, err := New(Config{Name: "q", SizeBytes: 1024, Ways: 4, LineBytes: 64})
		if err != nil {
			return false
		}
		for i, raw := range addrs {
			p := gsdram.Pattern(0)
			if len(patterns) > 0 {
				p = gsdram.Pattern(patterns[i%len(patterns)] & 7)
			}
			a := addrmap.Addr(raw) &^ 63
			c.Fill(a, p, i%2 == 0)
			if ok, _ := c.Probe(a, p); !ok {
				return false // just-filled line must be resident
			}
		}
		return len(c.Lines()) <= 16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLRUStackProperty: repeatedly touching a working set no larger than
// the associativity of one set never misses after the initial fills.
func TestLRUStackProperty(t *testing.T) {
	c := mustNew(t, Config{Name: "s", SizeBytes: 8192, Ways: 8, LineBytes: 64})
	// 8 lines all mapping to set 0 (set stride = 16 lines x 64 B = 1 KiB).
	var lines []addrmap.Addr
	for i := 0; i < 8; i++ {
		lines = append(lines, addrmap.Addr(i*1024))
	}
	for _, a := range lines {
		c.Fill(a, 0, false)
	}
	for round := 0; round < 10; round++ {
		for _, a := range lines {
			if !c.Lookup(a, 0, false) {
				t.Fatalf("round %d: working set within associativity missed", round)
			}
		}
	}
}
