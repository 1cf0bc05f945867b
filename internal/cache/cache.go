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
//	key = tag<<keyTagShift | pattern<<keyPattShift | keyValid
//
// so the per-way match in find is a single integer compare and an 8-way
// set's keys occupy 64 contiguous bytes (one host cache line) instead of
// eight scattered structs. An invalid way has key 0, which can never
// equal a packed key (bit 0 is the valid bit). Pattern IDs fit in 16
// bits (Params.PatternBits is capped at 16), leaving 47 bits of tag —
// enough for any address below 2^53 bytes; Fill guards the bound.
const (
	keyValid     = 1
	keyPattShift = 1
	keyPattBits  = 16
	keyTagShift  = keyPattShift + keyPattBits
)

func packKey(tag uint64, p gsdram.Pattern) uint64 {
	return tag<<keyTagShift | uint64(p)<<keyPattShift | keyValid
}

func keyTag(key uint64) uint64 { return key >> keyTagShift }
func keyPattern(key uint64) gsdram.Pattern {
	return gsdram.Pattern(key >> keyPattShift & (1<<keyPattBits - 1))
}

// Cache is one level of set-associative cache with LRU replacement. The
// per-line state lives in parallel arrays indexed by set*Ways+way: the
// packed identity keys scanned on every access, and the LRU stamps, dirty
// bits and prefetch marks touched only on hits, fills and victim scans.
type Cache struct {
	cfg     Config
	keys    []uint64
	stamps  []uint64
	dirty   []bool
	marked  []bool
	ways    int
	setMask uint64
	offBits uint
	clock   uint64
	ctr     counters

	// mru[set] is the way index of the set's most recent hit or fill.
	// find probes it before the linear scan: temporally local access
	// streams resolve in one compare instead of Ways. Purely an access-
	// path shortcut — hit/miss/LRU behaviour is unchanged.
	mru []uint16
}

// New builds a cache. Size, ways, and line size must be consistent powers
// of two.
func New(cfg Config) (*Cache, error) {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 || cfg.LineBytes <= 0 {
		return nil, fmt.Errorf("cache %s: non-positive geometry %+v", cfg.Name, cfg)
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
	return &Cache{
		cfg:     cfg,
		keys:    make([]uint64, lines),
		stamps:  make([]uint64, lines),
		dirty:   make([]bool, lines),
		marked:  make([]bool, lines),
		ways:    cfg.Ways,
		setMask: uint64(numSets - 1),
		offBits: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		mru:     make([]uint16, numSets),
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

// setIndex and tag derive placement from the line address; the pattern ID
// participates only in the tag match, mirroring the hardware extension.
func (c *Cache) setIndex(a addrmap.Addr) uint64 { return (uint64(a) >> c.offBits) & c.setMask }
func (c *Cache) tag(a addrmap.Addr) uint64      { return uint64(a) >> c.offBits }

// find returns the line index of (addr, pattern), or -1. The packed-key
// compare subsumes the validity, tag, and pattern checks.
func (c *Cache) find(a addrmap.Addr, p gsdram.Pattern) int {
	si := c.setIndex(a)
	key := packKey(c.tag(a), p)
	base := int(si) * c.ways
	if i := base + int(c.mru[si]); c.keys[i] == key {
		return i
	}
	for i := base; i < base+c.ways; i++ {
		if c.keys[i] == key {
			c.mru[si] = uint16(i - base)
			return i
		}
	}
	return -1
}

// victim returns the index to fill in the set holding a: the first
// invalid way, or the LRU way of a full set.
func (c *Cache) victim(si uint64) int {
	base := int(si) * c.ways
	vi := base
	for i := base; i < base+c.ways; i++ {
		if c.keys[i]&keyValid == 0 {
			vi = i
			break
		}
		if c.stamps[i] < c.stamps[vi] {
			vi = i
		}
	}
	c.mru[si] = uint16(vi - base)
	return vi
}

// Lookup checks for (addr, pattern), updating LRU and hit/miss statistics.
// setDirty additionally marks a hit line dirty (a store hit).
func (c *Cache) Lookup(a addrmap.Addr, p gsdram.Pattern, setDirty bool) bool {
	c.clock++
	if i := c.find(a, p); i >= 0 {
		c.stamps[i] = c.clock
		if setDirty {
			c.dirty[i] = true
		}
		c.ctr.Hits++
		if p != gsdram.DefaultPattern {
			c.ctr.PatternHits++
		}
		return true
	}
	c.ctr.Misses++
	return false
}

// Probe checks for presence without touching LRU or statistics.
func (c *Cache) Probe(a addrmap.Addr, p gsdram.Pattern) (present, dirty bool) {
	if i := c.find(a, p); i >= 0 {
		return true, c.dirty[i]
	}
	return false, false
}

// evictLine extracts and counts the line being displaced at index vi,
// and returns whether one was resident.
func (c *Cache) evictLine(vi int) (Line, bool) {
	key := c.keys[vi]
	if key&keyValid == 0 {
		return Line{}, false
	}
	c.ctr.Evictions++
	if c.dirty[vi] {
		c.ctr.DirtyEvicts++
	}
	return c.line(vi), true
}

// Fill inserts (addr, pattern), evicting the LRU way if the set is full.
// It returns the evicted line, if any. Filling a line that is already
// present just refreshes it (merging dirtiness).
func (c *Cache) Fill(a addrmap.Addr, p gsdram.Pattern, dirty bool) (evicted Line, hasEvict bool) {
	if i := c.find(a, p); i >= 0 {
		c.clock++
		c.stamps[i] = c.clock
		c.dirty[i] = c.dirty[i] || dirty
		return Line{}, false
	}
	return c.FillNew(a, p, dirty)
}

// FillNew is Fill for a line the caller has just observed absent — a
// Lookup miss on (addr, pattern) with no fill of this cache since — so
// the presence scan is skipped and victim selection starts at once.
// Filling a line that is actually present would duplicate it; call
// sites must guarantee absence.
func (c *Cache) FillNew(a addrmap.Addr, p gsdram.Pattern, dirty bool) (evicted Line, hasEvict bool) {
	c.clock++
	if c.tag(a) >= 1<<(64-keyTagShift) {
		panic(fmt.Sprintf("cache %s: address %#x exceeds the packed-tag range", c.cfg.Name, uint64(a)))
	}
	vi := c.victim(c.setIndex(a))
	evicted, hasEvict = c.evictLine(vi)
	c.keys[vi] = packKey(c.tag(a), p)
	c.stamps[vi] = c.clock
	c.dirty[vi] = dirty
	c.marked[vi] = false
	if p != gsdram.DefaultPattern {
		c.ctr.PatternFills++
	}
	return evicted, hasEvict
}

// line describes the valid line at index i.
func (c *Cache) line(i int) Line {
	key := c.keys[i]
	return Line{Addr: addrmap.Addr(keyTag(key) << c.offBits), Pattern: keyPattern(key), Dirty: c.dirty[i], Marked: c.marked[i]}
}

// clearLine resets line index i to the invalid state.
func (c *Cache) clearLine(i int) {
	c.keys[i] = 0
	c.stamps[i] = 0
	c.dirty[i] = false
}

// Invalidate removes (addr, pattern) if present, returning whether it was
// present and whether it was dirty (the caller must write back dirty
// victims).
func (c *Cache) Invalidate(a addrmap.Addr, p gsdram.Pattern) (present, dirty bool) {
	if i := c.find(a, p); i >= 0 {
		c.ctr.Invalidations++
		dirty = c.dirty[i]
		c.clearLine(i)
		return true, dirty
	}
	return false, false
}

// CleanLine clears the dirty bit of (addr, pattern) and reports whether
// the line was present and dirty, so the caller writes it back.
func (c *Cache) CleanLine(a addrmap.Addr, p gsdram.Pattern) (wasDirty bool) {
	if i := c.find(a, p); i >= 0 && c.dirty[i] {
		c.dirty[i] = false
		return true
	}
	return false
}

// Mark sets the prefetch mark of (addr, pattern), if present: the line's
// last fill was a prefetch. FillNew resets a way's mark, and an invalid
// way matches no lookup, so an evicted, invalidated or refilled line
// carries no mark.
func (c *Cache) Mark(a addrmap.Addr, p gsdram.Pattern) {
	if i := c.find(a, p); i >= 0 {
		c.marked[i] = true
	}
}

// Unmark clears the prefetch mark of (addr, pattern) and reports whether
// the line was present and marked: a demand hit used the prefetch.
func (c *Cache) Unmark(a addrmap.Addr, p gsdram.Pattern) (wasMarked bool) {
	if i := c.find(a, p); i >= 0 && c.marked[i] {
		c.marked[i] = false
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
	for i, key := range c.keys {
		if key&keyValid != 0 {
			lines = append(lines, c.line(i))
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

// Flush invalidates every line, returning all dirty lines for writeback.
func (c *Cache) Flush() []Line {
	var dirty []Line
	for i, key := range c.keys {
		if key&keyValid != 0 && c.dirty[i] {
			dirty = append(dirty, c.line(i))
		}
		c.clearLine(i)
	}
	return dirty
}
