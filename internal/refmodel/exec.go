package refmodel

import (
	"fmt"

	"gsdram/internal/addrmap"
	"gsdram/internal/cache"
	"gsdram/internal/gsdram"
)

// This file executes architectural operations against the model,
// mirroring the protocol steps of internal/memsys.Access with all timing
// removed:
//
//  1. a store to a shuffled page invalidates the overlapping other-pattern
//     lines in every cache (writing back dirty ones);
//  2. L1 lookup — a hit completes the access;
//  3. on an L1 miss, a dirty copy in another core's L1 is pulled into L2;
//  4. L2 lookup — a hit fills the L1 with a copy of the L2 data;
//  5. on an L2 miss to a shuffled page, dirty overlapping lines of the
//     other pattern are written back first (paper §4.1), then the line is
//     gathered from memory, filled into L2 clean and into the L1.
//
// Dirty L1 victims fall into the L2 with their data; dirty L2 victims
// scatter to flat memory. A dirty L1 writeback also refreshes the data of
// a resident L2 copy of the same (line, pattern) — the model's caches
// carry data, so without the refresh the L2 could later serve words older
// than the ones just written back, a hazard the presence-only simulator
// cannot express.

// checkAccess enforces the two-pattern page restriction (§4.1): pattern 0
// is always allowed; a non-zero pattern needs a shuffled page whose
// alternate pattern matches.
func (m *Model) checkAccess(a addrmap.Addr, patt gsdram.Pattern) error {
	if patt == 0 {
		return nil
	}
	pg := m.page(a)
	if !pg.Shuffled {
		return fmt.Errorf("refmodel: patterned access (pattern %d) to unshuffled page at %#x", patt, uint64(a))
	}
	if pg.Alt != patt {
		return fmt.Errorf("refmodel: pattern %d differs from page's alternate pattern %d at %#x", patt, pg.Alt, uint64(a))
	}
	return nil
}

// writebackEntry scatters an entry's words to flat memory. When the entry
// lives in an L1 and the L2 holds a copy of the same (line, pattern), the
// copy's data is refreshed too (state and recency untouched).
func (m *Model) writebackEntry(e *entry, fromL1 bool) {
	for i, wa := range e.addrs {
		m.setWord(wa, e.words[i])
	}
	if fromL1 {
		if l2e := m.l2.probe(e.addr, e.patt); l2e != nil {
			copy(l2e.words, e.words)
		}
	}
}

// fillL2 inserts an entry into the L2, scattering its dirty victim.
func (m *Model) fillL2(e *entry) {
	if ev := m.l2.fill(e); ev != nil && ev.dirty {
		m.writebackEntry(ev, false)
	}
}

// fillL1 inserts an entry into a core's L1; a dirty victim falls into L2.
func (m *Model) fillL1(core int, e *entry) {
	if ev := m.l1[core].fill(e); ev != nil && ev.dirty {
		m.fillL2(ev)
	}
}

// probeOtherL1s pulls a dirty copy of (line, patt) out of any other
// core's L1 into the shared L2, data and all.
func (m *Model) probeOtherL1s(core int, line addrmap.Addr, patt gsdram.Pattern) {
	for i, l1 := range m.l1 {
		if i == core {
			continue
		}
		if e := l1.probe(line, patt); e != nil && e.dirty {
			l1.invalidate(line, patt)
			m.fillL2(e)
		}
	}
}

// invalidateOverlaps drops other-pattern lines overlapping a store from
// every cache, writing back dirty ones first (§4.1 store rule).
func (m *Model) invalidateOverlaps(line addrmap.Addr, patt, alt gsdram.Pattern) {
	var other gsdram.Pattern
	m.ovAddrs, other = m.overlaps(m.ovAddrs, line, patt, alt)
	for _, oa := range m.ovAddrs {
		for i, c := range m.caches {
			if e := c.probe(oa, other); e != nil {
				if e.dirty {
					m.writebackEntry(e, i < len(m.l1))
				}
				c.invalidate(oa, other)
			}
		}
	}
}

// flushOverlaps writes back dirty other-pattern lines overlapping a fetch,
// leaving them resident but clean (§4.1 fetch rule).
func (m *Model) flushOverlaps(line addrmap.Addr, patt, alt gsdram.Pattern) {
	var other gsdram.Pattern
	m.ovAddrs, other = m.overlaps(m.ovAddrs, line, patt, alt)
	for _, oa := range m.ovAddrs {
		for i, c := range m.caches {
			if e := c.probe(oa, other); e != nil && e.dirty {
				m.writebackEntry(e, i < len(m.l1))
				e.dirty = false
			}
		}
	}
}

// buildEntry gathers (line, patt) from flat memory.
func (m *Model) buildEntry(line addrmap.Addr, patt gsdram.Pattern) *entry {
	e := &entry{
		addr:    line,
		patt:    patt,
		words:   make([]uint64, m.chips),
		addrs:   make([]addrmap.Addr, m.chips),
		logical: make([]int, m.chips),
	}
	m.gather(line, patt, e.addrs, e.logical)
	for i, wa := range e.addrs {
		e.words[i] = m.word(wa)
	}
	return e
}

// access runs the full protocol for one operation and returns the L1
// entry now holding the line. Stores mutate the returned entry.
func (m *Model) access(core int, a addrmap.Addr, patt gsdram.Pattern, write bool) (*entry, error) {
	if core < 0 || core >= len(m.l1) {
		return nil, fmt.Errorf("refmodel: core %d out of range", core)
	}
	if err := m.checkAccess(a, patt); err != nil {
		return nil, err
	}
	line := m.lineOf(a)
	pg := m.page(a)

	if write && pg.Shuffled {
		m.invalidateOverlaps(line, patt, pg.Alt)
	}

	if e := m.l1[core].lookup(line, patt); e != nil {
		if write {
			e.dirty = true
		}
		return e, nil
	}

	m.probeOtherL1s(core, line, patt)

	if e := m.l2.lookup(line, patt); e != nil {
		ne := e.clone()
		ne.dirty = write
		m.fillL1(core, ne)
		return ne, nil
	}

	if pg.Shuffled {
		m.flushOverlaps(line, patt, pg.Alt)
	}
	ne := m.buildEntry(line, patt)
	m.fillL2(ne.clone())
	ne.dirty = write
	m.fillL1(core, ne)
	return ne, nil
}

// LoadWord performs a plain (default-pattern) load of one 8-byte word.
func (m *Model) LoadWord(core int, a addrmap.Addr) (uint64, error) {
	e, err := m.access(core, a, 0, false)
	if err != nil {
		return 0, err
	}
	pos := e.posOf(a &^ 7)
	if pos < 0 {
		return 0, fmt.Errorf("refmodel: word %#x missing from its own line entry", uint64(a))
	}
	return e.words[pos], nil
}

// StoreWord performs a plain (default-pattern) store of one 8-byte word.
func (m *Model) StoreWord(core int, a addrmap.Addr, v uint64) error {
	e, err := m.access(core, a, 0, true)
	if err != nil {
		return err
	}
	pos := e.posOf(a &^ 7)
	if pos < 0 {
		return fmt.Errorf("refmodel: word %#x missing from its own line entry", uint64(a))
	}
	e.words[pos] = v
	return nil
}

// LoadLine performs a pattload: gather the line at a with the given
// pattern into dst (ascending logical order, as the hardware returns it)
// and report the within-row logical word indices.
func (m *Model) LoadLine(core int, a addrmap.Addr, patt gsdram.Pattern, dst []uint64) ([]int, error) {
	e, err := m.access(core, a, patt, false)
	if err != nil {
		return nil, err
	}
	if len(dst) < len(e.words) {
		return nil, fmt.Errorf("refmodel: dst holds %d words, need %d", len(dst), len(e.words))
	}
	copy(dst, e.words)
	return e.logical, nil
}

// StoreLine performs a pattstore: scatter vals over the line at a with
// the given pattern.
func (m *Model) StoreLine(core int, a addrmap.Addr, patt gsdram.Pattern, vals []uint64) error {
	e, err := m.access(core, a, patt, true)
	if err != nil {
		return err
	}
	if len(vals) != len(e.words) {
		return fmt.Errorf("refmodel: line store of %d words, need %d", len(vals), len(e.words))
	}
	copy(e.words, vals)
	return nil
}

// FlushCaches scatters every dirty line to flat memory, leaving cache
// state untouched (entries stay resident and dirty). Use it before
// PeekWord/ChipWord for an end-of-program memory view; snapshot
// CacheLines first if cache state is also being compared.
func (m *Model) FlushCaches() {
	for i, c := range m.caches {
		fromL1 := i < len(m.l1)
		c.forEachEntry(func(e *entry) {
			if e.dirty {
				m.writebackEntry(e, fromL1)
			}
		})
	}
}

// CacheLines snapshots the resident lines of every cache in the same
// sorted form as memsys.System.SnapshotCaches, for direct comparison.
func (m *Model) CacheLines() (l1 [][]cache.Line, l2 []cache.Line) {
	l1 = make([][]cache.Line, len(m.l1))
	for i, c := range m.l1 {
		l1[i] = c.lines()
	}
	return l1, m.l2.lines()
}
