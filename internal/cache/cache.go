// Package cache implements the set-associative write-back caches of the
// simulated system, extended for GS-DRAM as described in paper §4.1: every
// tag carries a pattern ID, so a gathered (non-contiguous) cache line and
// the default-pattern line with the same address coexist as distinct
// entries. The cost of this extension is p bits per tag — less than 0.6 %
// of cache capacity for p = 3 (paper §4.4).
//
// The package is a timing/state model: it tracks presence, dirtiness, and
// LRU, not data. Functional data lives in the gsdram.Module backing store.
package cache

import (
	"fmt"
	"math/bits"
	"sort"

	"gsdram/internal/addrmap"
	"gsdram/internal/gsdram"
	"gsdram/internal/metrics"
)

// Config describes one cache level.
type Config struct {
	Name      string // for error messages and stats dumps
	SizeBytes int
	Ways      int
	LineBytes int
}

// L1Default is the paper's L1: private, 32 KB, 8-way, LRU, 64 B lines.
func L1Default() Config {
	return Config{Name: "L1", SizeBytes: 32 << 10, Ways: 8, LineBytes: 64}
}

// L2Default is the paper's L2: shared, 2 MB, 8-way, LRU, 64 B lines.
func L2Default() Config {
	return Config{Name: "L2", SizeBytes: 2 << 20, Ways: 8, LineBytes: 64}
}

// Line identifies one resident cache line: its address, the pattern ID
// it was fetched with, its dirty bit and its prefetch mark (see Mark).
type Line struct {
	Addr    addrmap.Addr
	Pattern gsdram.Pattern
	Dirty   bool
	Marked  bool
}

// Stats counts cache events. It is the compatibility snapshot type
// returned by Cache.Stats; the live storage is the counters struct
// below, whose fields register into a metrics.Registry.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	DirtyEvicts   uint64
	Invalidations uint64
	PatternHits   uint64 // hits on non-zero-pattern lines
	PatternFills  uint64 // fills of non-zero-pattern lines
}

// counters is the live counter storage: metrics.Counter fields increment
// exactly like the uint64s they replaced, and RegisterMetrics exposes
// them by name.
type counters struct {
	Hits          metrics.Counter
	Misses        metrics.Counter
	Evictions     metrics.Counter
	DirtyEvicts   metrics.Counter
	Invalidations metrics.Counter
	PatternHits   metrics.Counter
	PatternFills  metrics.Counter
}

// Tag-array packing: each line's identity is one uint64 key,
//
//	key = tag<<keyTagShift | pattern
//
// so the full match in find is a single integer compare and an 8-way
// set's keys occupy 64 contiguous bytes. Whether a way holds a line at
// all is recorded by its fingerprint byte (see set), not by its key,
// which an invalidation leaves stale. Pattern IDs fit in 16 bits
// (Params.PatternBits is capped at 16), leaving 48 bits of tag — enough
// for any address below 2^54 bytes with 64-byte lines; FillNew guards
// the bound.
const (
	keyPattBits = 16
	keyTagShift = keyPattBits
)

func packKey(tag uint64, p gsdram.Pattern) uint64 {
	return tag<<keyTagShift | uint64(p)
}

func keyTag(key uint64) uint64 { return key >> keyTagShift }
func keyPattern(key uint64) gsdram.Pattern {
	return gsdram.Pattern(key & (1<<keyPattBits - 1))
}

// Byte-lane constants of the per-set SWAR words: one byte per way.
const (
	lanes01 = 0x0101010101010101
	lanes7F = 0x7F7F7F7F7F7F7F7F
)

// maxWays is the widest set a record describes: one byte lane per way.
const maxWays = 8

// fingerprint is a way's fingerprint byte for key: the valid bit 0x80
// and 7 bits of a multiplicative hash of the key.
func fingerprint(key uint64) uint64 { return 0x80 | key*0x9E3779B97F4A7C15>>57 }

// zeroLanes returns 0x80 in every byte lane of x that is zero and 0 in
// every other lane. It is exact: no carry crosses a lane.
func zeroLanes(x uint64) uint64 { return ^(x&lanes7F + lanes7F | x | lanes7F) }

// set is one set's replacement and status state, a byte lane or a bit
// per way, so that a lookup, a miss and a victim choice need no loop
// over the ways. The zero set is an empty set.
type set struct {
	// fp holds way w's fingerprint byte in lane w, or 0 when way w is
	// invalid. find compares a query's full key only on the lanes whose
	// byte equals the query's, so a miss almost never reads keys.
	fp uint64
	// lru is an 8x8 recency matrix: bit 8*w+v is set when way w was used
	// after way v. Using w sets row w and clears column w, so once every
	// way has been used the rows order the ways by last use, and the LRU
	// way is the one whose row is zero over the cache's way columns.
	lru uint64
	// dirty and marked hold way w's dirty bit and prefetch mark in bit w.
	// Both are meaningful only while fp's lane w is non-zero: FillNew
	// sets them afresh.
	dirty, marked uint8
}

func (s *set) valid(w uint) bool { return s.fp>>(8*w)&0xFF != 0 }

// use makes way w the set's most recently used.
func (s *set) use(w uint) { s.lru = (s.lru | 0xFF<<(8*w)) &^ (lanes01 << w) }

// Cache is one level of set-associative cache with LRU replacement. The
// packed identity keys live in one array indexed by set*Ways+way, so an
// 8-way set's keys are 64 contiguous bytes; everything else about a set
// — validity, recency, dirtiness and prefetch marks — lives in its set
// record.
type Cache struct {
	cfg     Config
	keys    []uint64
	sets    []set
	ways    int
	setMask uint64
	offBits uint
	// lanes has 0x80 in the byte lane of each way the cache has, and
	// cols has, in every lane, one bit per way column: the masks that
	// keep a narrower cache's victim choice off the lanes it lacks.
	lanes, cols uint64
	ctr         counters
}

// New builds a cache. Size, ways, and line size must be consistent powers
// of two, with at most 8 ways.
func New(cfg Config) (*Cache, error) {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 || cfg.LineBytes <= 0 {
		return nil, fmt.Errorf("cache %s: non-positive geometry %+v", cfg.Name, cfg)
	}
	if cfg.Ways > maxWays {
		return nil, fmt.Errorf("cache %s: %d ways exceed the %d a set record holds", cfg.Name, cfg.Ways, maxWays)
	}
	if cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return nil, fmt.Errorf("cache %s: LineBytes must be a power of two", cfg.Name)
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	if lines*cfg.LineBytes != cfg.SizeBytes || lines%cfg.Ways != 0 {
		return nil, fmt.Errorf("cache %s: size %d not divisible into %d-way sets of %d-byte lines", cfg.Name, cfg.SizeBytes, cfg.Ways, cfg.LineBytes)
	}
	numSets := lines / cfg.Ways
	if numSets&(numSets-1) != 0 {
		return nil, fmt.Errorf("cache %s: set count %d must be a power of two", cfg.Name, numSets)
	}
	ways := uint(cfg.Ways)
	wayLanes := uint64(lanes01) & (uint64(1)<<(8*ways) - 1) // 1<<64 is 0: all 8 lanes
	return &Cache{
		cfg:     cfg,
		keys:    make([]uint64, lines),
		sets:    make([]set, numSets),
		ways:    cfg.Ways,
		setMask: uint64(numSets - 1),
		offBits: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		lanes:   wayLanes * 0x80,
		cols:    wayLanes * (1<<ways - 1),
	}, nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:          c.ctr.Hits.Value(),
		Misses:        c.ctr.Misses.Value(),
		Evictions:     c.ctr.Evictions.Value(),
		DirtyEvicts:   c.ctr.DirtyEvicts.Value(),
		Invalidations: c.ctr.Invalidations.Value(),
		PatternHits:   c.ctr.PatternHits.Value(),
		PatternFills:  c.ctr.PatternFills.Value(),
	}
}

// Counters is a saved copy of a cache's counters (SaveCounters).
type Counters struct{ ctr counters }

// SaveCounters returns the counters, for RestoreCounters to put back
// after a stretch of accesses that must not count.
func (c *Cache) SaveCounters() Counters { return Counters{c.ctr} }

// RestoreCounters puts back counters that SaveCounters returned.
func (c *Cache) RestoreCounters(saved Counters) { c.ctr = saved.ctr }

// RegisterMetrics registers the cache's counters under prefix (e.g.
// "cache.l1.0"). No-op on a nil registry.
func (c *Cache) RegisterMetrics(r *metrics.Registry, prefix string) {
	r.RegisterCounter(prefix+".hits", &c.ctr.Hits)
	r.RegisterCounter(prefix+".misses", &c.ctr.Misses)
	r.RegisterCounter(prefix+".evictions", &c.ctr.Evictions)
	r.RegisterCounter(prefix+".dirty_evicts", &c.ctr.DirtyEvicts)
	r.RegisterCounter(prefix+".invalidations", &c.ctr.Invalidations)
	r.RegisterCounter(prefix+".pattern_hits", &c.ctr.PatternHits)
	r.RegisterCounter(prefix+".pattern_fills", &c.ctr.PatternFills)
}

// tag derives placement from the line address: its low bits select the
// set. The pattern ID participates only in the tag match, mirroring the
// hardware extension.
func (c *Cache) tag(a addrmap.Addr) uint64 { return uint64(a) >> c.offBits }

// find returns the set that (addr, pattern) maps to and, if the line is
// resident, its way. Only a lane whose fingerprint byte equals the
// query's can hold the line; the full-key compare settles it.
func (c *Cache) find(a addrmap.Addr, p gsdram.Pattern) (s *set, w uint, ok bool) {
	tag := c.tag(a)
	si := int(tag & c.setMask)
	s = &c.sets[si]
	key := packKey(tag, p)
	for m := zeroLanes(s.fp ^ fingerprint(key)*lanes01); m != 0; m &= m - 1 {
		w = uint(bits.TrailingZeros64(m)) >> 3
		if c.keys[si*c.ways+int(w)] == key {
			return s, w, true
		}
	}
	return s, 0, false
}

// victim returns the way to fill in s: the first invalid way, or the LRU
// way of a full set.
func (c *Cache) victim(s *set) uint {
	m := zeroLanes(s.fp) & c.lanes
	if m == 0 {
		m = zeroLanes(s.lru&c.cols) & c.lanes
	}
	return uint(bits.TrailingZeros64(m)) >> 3
}

// Lookup checks for (addr, pattern), updating LRU and hit/miss statistics.
// setDirty additionally marks a hit line dirty (a store hit).
func (c *Cache) Lookup(a addrmap.Addr, p gsdram.Pattern, setDirty bool) bool {
	s, w, ok := c.find(a, p)
	if !ok {
		c.ctr.Misses++
		return false
	}
	s.use(w)
	if setDirty {
		s.dirty |= 1 << w
	}
	c.ctr.Hits++
	if p != gsdram.DefaultPattern {
		c.ctr.PatternHits++
	}
	return true
}

// Probe checks for presence without touching LRU or statistics.
func (c *Cache) Probe(a addrmap.Addr, p gsdram.Pattern) (present, dirty bool) {
	s, w, ok := c.find(a, p)
	return ok, ok && s.dirty>>w&1 != 0
}

// Fill inserts (addr, pattern), evicting the LRU way if the set is full.
// It returns the evicted line, if any. Filling a line that is already
// present just refreshes it (merging dirtiness).
func (c *Cache) Fill(a addrmap.Addr, p gsdram.Pattern, dirty bool) (evicted Line, hasEvict bool) {
	if s, w, ok := c.find(a, p); ok {
		s.use(w)
		if dirty {
			s.dirty |= 1 << w
		}
		return Line{}, false
	}
	return c.FillNew(a, p, dirty)
}

// FillNew is Fill for a line the caller has just observed absent — a
// Lookup miss on (addr, pattern) with no fill of this cache since — so
// the presence check is skipped and victim selection starts at once.
// Filling a line that is actually present would duplicate it; call
// sites must guarantee absence.
func (c *Cache) FillNew(a addrmap.Addr, p gsdram.Pattern, dirty bool) (evicted Line, hasEvict bool) {
	tag := c.tag(a)
	if tag >= 1<<(64-keyTagShift) {
		panic(fmt.Sprintf("cache %s: address %#x exceeds the packed-tag range", c.cfg.Name, uint64(a)))
	}
	si := int(tag & c.setMask)
	s := &c.sets[si]
	w := c.victim(s)
	i := si*c.ways + int(w)
	if s.valid(w) {
		evicted, hasEvict = c.line(s, i, w), true
		c.ctr.Evictions++
		if evicted.Dirty {
			c.ctr.DirtyEvicts++
		}
	}
	key := packKey(tag, p)
	c.keys[i] = key
	s.fp = s.fp&^(0xFF<<(8*w)) | fingerprint(key)<<(8*w)
	s.use(w)
	bit := uint8(1) << w
	s.dirty &^= bit
	if dirty {
		s.dirty |= bit
	}
	s.marked &^= bit
	if p != gsdram.DefaultPattern {
		c.ctr.PatternFills++
	}
	return evicted, hasEvict
}

// line describes the valid line in way w of s, whose key is keys[i].
func (c *Cache) line(s *set, i int, w uint) Line {
	key := c.keys[i]
	return Line{
		Addr:    addrmap.Addr(keyTag(key) << c.offBits),
		Pattern: keyPattern(key),
		Dirty:   s.dirty>>w&1 != 0,
		Marked:  s.marked>>w&1 != 0,
	}
}

// Invalidate removes (addr, pattern) if present, returning whether it was
// present and whether it was dirty (the caller must write back dirty
// victims).
func (c *Cache) Invalidate(a addrmap.Addr, p gsdram.Pattern) (present, dirty bool) {
	s, w, ok := c.find(a, p)
	if !ok {
		return false, false
	}
	c.ctr.Invalidations++
	s.fp &^= 0xFF << (8 * w)
	return true, s.dirty>>w&1 != 0
}

// CleanLine clears the dirty bit of (addr, pattern) and reports whether
// the line was present and dirty, so the caller writes it back.
func (c *Cache) CleanLine(a addrmap.Addr, p gsdram.Pattern) (wasDirty bool) {
	if s, w, ok := c.find(a, p); ok && s.dirty>>w&1 != 0 {
		s.dirty &^= 1 << w
		return true
	}
	return false
}

// Mark sets the prefetch mark of (addr, pattern), if present: the line's
// last fill was a prefetch. FillNew resets a way's mark, and an invalid
// way matches no lookup, so an evicted, invalidated or refilled line
// carries no mark.
func (c *Cache) Mark(a addrmap.Addr, p gsdram.Pattern) {
	if s, w, ok := c.find(a, p); ok {
		s.marked |= 1 << w
	}
}

// Unmark clears the prefetch mark of (addr, pattern) and reports whether
// the line was present and marked: a demand hit used the prefetch.
func (c *Cache) Unmark(a addrmap.Addr, p gsdram.Pattern) (wasMarked bool) {
	if s, w, ok := c.find(a, p); ok && s.marked>>w&1 != 0 {
		s.marked &^= 1 << w
		return true
	}
	return false
}

// Lines returns a snapshot of every resident line, sorted by (address,
// pattern) so two snapshots are directly comparable regardless of way
// placement. It is the state-extraction hook of the differential
// verification harness (internal/stress): the architectural content of a
// cache is exactly this set — which (line, pattern) pairs are present,
// dirty and marked — not where in a set they happen to live.
func (c *Cache) Lines() []Line {
	var lines []Line
	for si := range c.sets {
		s := &c.sets[si]
		for w := uint(0); w < uint(c.ways); w++ {
			if s.valid(w) {
				lines = append(lines, c.line(s, si*c.ways+int(w), w))
			}
		}
	}
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].Addr != lines[j].Addr {
			return lines[i].Addr < lines[j].Addr
		}
		return lines[i].Pattern < lines[j].Pattern
	})
	return lines
}
